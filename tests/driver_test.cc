/**
 * @file
 * Tests for the three-step driver: trace simulation (checkpoints,
 * first touch, migration plumbing, oracle mode), the timing
 * simulation (latency sanity on synthetic traces, speedup
 * direction), and the experiment API. Uses small hand-built traces
 * so expectations are exact, plus one tiny end-to-end workload run.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/system_setup.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"
#include "workloads/gap.hh"

namespace starnuma
{
namespace driver
{
namespace
{

SimScale
tinyScale()
{
    SimScale s;
    s.phases = 2;
    s.phaseInstructions = 20000;
    s.detailFraction = 0.5;
    s.warmupFraction = 0.1;
    return s;
}

/**
 * Synthetic trace: @p shared_pages pages touched by every thread
 * plus one private page per thread; @p accesses records per thread
 * per phase, round-robin over the pages.
 */
trace::WorkloadTrace
syntheticTrace(const SimScale &scale, int shared_pages,
               int accesses_per_phase, bool writes = false)
{
    trace::WorkloadTrace t;
    t.threads = scale.threads();
    t.instructionsPerThread =
        static_cast<std::uint64_t>(scale.phases) *
        scale.phaseInstructions;
    t.perThread.resize(t.threads);

    Addr shared_base = 0x10000000;
    Addr private_base = shared_base +
                        static_cast<Addr>(shared_pages) * pageBytes;
    t.footprintBytes =
        (shared_pages + t.threads) * pageBytes;

    for (ThreadId th = 0; th < t.threads; ++th) {
        // Private page seeded by setup first touch.
        t.firstTouches.push_back(
            {pageNumber(private_base) + PageNum(th), th});
        for (int phase = 0; phase < scale.phases; ++phase) {
            std::uint64_t base =
                static_cast<std::uint64_t>(phase) *
                scale.phaseInstructions;
            std::uint64_t gap =
                scale.phaseInstructions / (accesses_per_phase + 1);
            for (int i = 0; i < accesses_per_phase; ++i) {
                bool to_shared = (i % 2 == 0);
                Addr addr =
                    to_shared
                        ? shared_base +
                              ((i / 2 + th) % shared_pages) *
                                  pageBytes +
                              (i % 64) * blockBytes
                        : private_base + th * pageBytes +
                              (i % 64) * blockBytes;
                t.perThread[th].emplace_back(base + (i + 1) * gap,
                                             addr,
                                             writes && i % 4 == 0);
            }
        }
    }
    for (int p = 0; p < shared_pages; ++p)
        if (writes)
            t.writtenPages.push_back(pageNumber(shared_base) +
                                     PageNum(p));
    return t;
}

TEST(TraceSim, CheckpointsPerPhase)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 200);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);
    ASSERT_EQ(result.checkpoints.size(),
              static_cast<std::size_t>(s.phases));
    // First checkpoint's map holds only setup first touches.
    EXPECT_EQ(result.checkpoints[0].pageHome.size(),
              static_cast<std::size_t>(s.threads()));
    EXPECT_TRUE(result.checkpoints[0].regionMigrations.empty());
}

TEST(TraceSim, FirstTouchSeedsPrivatePagesLocally)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 4, 100);
    SystemSetup setup = SystemSetup::baseline();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);
    PageNum private_page =
        pageNumber(0x10000000 + 4 * pageBytes); // thread 0's page
    auto it = result.checkpoints[0].pageHome.find(private_page);
    ASSERT_NE(it, result.checkpoints[0].pageHome.end());
    EXPECT_EQ(it->second, 0);
}

TEST(TraceSim, StarnumaMigratesSharedPagesToPool)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 400);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);
    // Pages shared by all 16 sockets end up in the pool, and the
    // later checkpoint reflects that.
    EXPECT_GT(result.pagesInPool, 0u);
    EXPECT_GT(result.poolMigrationFraction, 0.9);
    bool any_pool = false;
    for (const auto &[page, home] :
         result.checkpoints[s.phases - 1].pageHome)
        any_pool |= (home == setup.sys.poolNode());
    EXPECT_TRUE(any_pool);
}

TEST(TraceSim, BaselineNeverUsesPool)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 400);
    SystemSetup setup = SystemSetup::baseline();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);
    EXPECT_EQ(result.pagesInPool, 0u);
    for (const auto &cp : result.checkpoints)
        for (const auto &[page, home] : cp.pageHome)
            EXPECT_LT(home, 16);
}

TEST(TraceSim, OracleModeHasNoMigrations)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 400);
    SystemSetup setup = SystemSetup::starnumaStatic();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);
    for (const auto &cp : result.checkpoints) {
        EXPECT_TRUE(cp.regionMigrations.empty());
        EXPECT_TRUE(cp.pageMigrations.empty());
    }
    EXPECT_GT(result.pagesInPool, 0u); // shared pages pre-placed
}

TEST(TraceSim, PoolCapacityFractionRespected)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 64, 400);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);
    EXPECT_LE(result.pagesInPool, result.poolCapacityPages);
    EXPECT_EQ(result.poolCapacityPages,
              static_cast<std::uint64_t>(
                  static_cast<double>(result.footprintPages) *
                  setup.sys.poolCapacityFraction));
}

TEST(TimingSim, AllLocalTraceRunsNearUnloadedLatency)
{
    SimScale s = tinyScale();
    // Only private pages: every access is socket-local.
    auto trace = syntheticTrace(s, 1, 0);
    for (ThreadId th = 0; th < s.threads(); ++th) {
        Addr base = 0x20000000 + th * 64 * pageBytes;
        trace.firstTouches.push_back({pageNumber(base), th});
        for (int i = 0; i < 100; ++i)
            trace.perThread[th].emplace_back(
                (i + 1) * 100, base + (i % 512) * blockBytes,
                false);
    }
    SystemSetup setup = SystemSetup::baseline();
    TraceSim tsim(setup, s);
    auto placement = tsim.run(trace);
    TimingSim timing(setup, s);
    auto m = timing.run(trace, placement);
    EXPECT_GT(m.mix[static_cast<int>(AccessType::Local)], 0.95);
    // Local unloaded is 80 ns; queueing on a near-idle system must
    // stay moderate (same-socket threads share one DRAM channel).
    EXPECT_LT(m.amatNs(), 220.0);
    EXPECT_GE(m.amatNs(), 79.0);
    EXPECT_GT(m.ipc, 0.1);
}

TEST(TimingSim, SharedTraceBenefitsFromPool)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 16, 600, /*writes=*/true);

    SystemSetup base = SystemSetup::baseline();
    TraceSim base_tsim(base, s);
    auto base_placement = base_tsim.run(trace);
    TimingSim base_timing(base, s);
    auto base_m = base_timing.run(trace, base_placement);

    SystemSetup star = SystemSetup::starnuma();
    TraceSim star_tsim(star, s);
    auto star_placement = star_tsim.run(trace);
    TimingSim star_timing(star, s);
    auto star_m = star_timing.run(trace, star_placement);

    // The widely shared pages move to the pool: pool accesses
    // appear and the unloaded AMAT component improves.
    EXPECT_GT(star_m.mix[static_cast<int>(AccessType::Pool)],
              0.02);
    EXPECT_LT(star_m.unloadedAmatCycles, base_m.unloadedAmatCycles);
    EXPECT_GE(star_m.speedupOver(base_m), 0.95);
}

TEST(TimingSim, SingleSocketLocalOptionIsFastest)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 16, 400);
    SystemSetup setup = SystemSetup::baseline();
    TraceSim tsim(setup, s);
    auto placement = tsim.run(trace);

    TimingSim multi(setup, s);
    auto multi_m = multi.run(trace, placement);

    TimingOptions opt;
    opt.singleSocketLocal = true;
    TimingSim single(setup, s, opt);
    auto single_m = single.run(trace, placement);

    EXPECT_GT(single_m.ipc, multi_m.ipc);
    EXPECT_GT(single_m.mix[static_cast<int>(AccessType::Local)],
              0.99);
}

TEST(TimingSim, MixFractionsSumToOne)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 300, true);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim tsim(setup, s);
    auto placement = tsim.run(trace);
    TimingSim timing(setup, s);
    auto m = timing.run(trace, placement);
    double sum = 0;
    for (double f : m.mix)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(m.memAccesses, 0u);
}

TEST(Metrics, AccessTypeTables)
{
    EXPECT_STREQ(accessTypeName(AccessType::Pool), "pool");
    EXPECT_STREQ(accessTypeName(AccessType::BtPool), "BT_Pool");
    EXPECT_DOUBLE_EQ(unloadedLatencyNs(AccessType::Local), 80.0);
    EXPECT_DOUBLE_EQ(unloadedLatencyNs(AccessType::TwoHop), 360.0);
    EXPECT_DOUBLE_EQ(unloadedLatencyNs(AccessType::BtSocket),
                     413.0);
    EXPECT_DOUBLE_EQ(unloadedLatencyNs(AccessType::BtPool), 280.0);
}

TEST(Metrics, SpeedupOver)
{
    RunMetrics a, b;
    a.ipc = 0.2;
    b.ipc = 0.1;
    EXPECT_DOUBLE_EQ(a.speedupOver(b), 2.0);
    EXPECT_DOUBLE_EQ(b.speedupOver(a), 0.5);
}

TEST(SystemSetups, NamedConfigurations)
{
    EXPECT_FALSE(SystemSetup::baseline().sys.hasPool);
    EXPECT_TRUE(SystemSetup::starnuma().sys.hasPool);
    EXPECT_EQ(SystemSetup::starnumaT0().migration.counterBits, 0);
    EXPECT_EQ(SystemSetup::baselineStatic().placement,
              Placement::StaticOracle);
    EXPECT_DOUBLE_EQ(
        SystemSetup::starnumaSwitched().sys.poolNs(), 270.0);
    EXPECT_DOUBLE_EQ(SystemSetup::starnumaHalfBW().sys.cxlGbps,
                     3.0);
}

TEST(Experiment, EndToEndTinyWorkload)
{
    // A real (small) BFS through the whole pipeline, both systems.
    SimScale s;
    s.phases = 3;
    s.phaseInstructions = 60000;
    workloads::Bfs bfs(3, /*scale=*/14, /*degree=*/8);
    auto trace = bfs.capture(s);

    SystemSetup base = SystemSetup::baseline();
    TraceSim base_tsim(base, s);
    auto base_p = base_tsim.run(trace);
    TimingSim base_t(base, s);
    auto base_m = base_t.run(trace, base_p);

    SystemSetup star = SystemSetup::starnuma();
    TraceSim star_tsim(star, s);
    auto star_p = star_tsim.run(trace);
    TimingSim star_t(star, s);
    auto star_m = star_t.run(trace, star_p);

    EXPECT_GT(base_m.ipc, 0.0);
    EXPECT_GT(star_m.ipc, 0.0);
    EXPECT_GT(star_m.mix[static_cast<int>(AccessType::Pool)], 0.0);
    EXPECT_GT(base_m.memAccesses, 300u);
    // BFS's shared pages migrate predominantly to the pool.
    EXPECT_GT(star_p.poolMigrationFraction, 0.3);
    EXPECT_GT(star_p.pagesInPool, 0u);
}

TEST(Checkpoints, SaveLoadRoundTrip)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 300, true);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim sim(setup, s);
    auto result = sim.run(trace);

    std::vector<std::uint8_t> bytes = result.serialize();
    ByteReader r(bytes.data(), bytes.size());
    TraceSimResult loaded;
    ASSERT_TRUE(loaded.deserialize(r));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(loaded.serialize(), bytes);
    ASSERT_EQ(loaded.checkpoints.size(),
              result.checkpoints.size());
    EXPECT_EQ(loaded.footprintPages, result.footprintPages);
    EXPECT_EQ(loaded.poolCapacityPages, result.poolCapacityPages);
    EXPECT_DOUBLE_EQ(loaded.poolMigrationFraction,
                     result.poolMigrationFraction);
    for (std::size_t p = 0; p < result.checkpoints.size(); ++p) {
        EXPECT_EQ(loaded.checkpoints[p].pageHome,
                  result.checkpoints[p].pageHome);
        EXPECT_EQ(loaded.checkpoints[p].regionMigrations.size(),
                  result.checkpoints[p].regionMigrations.size());
    }

    // The decoded checkpoints drive an identical timing simulation.
    TimingSim a(setup, s), b(setup, s);
    auto ma = a.run(trace, result);
    auto mb = b.run(trace, loaded);
    EXPECT_DOUBLE_EQ(ma.ipc, mb.ipc);
    EXPECT_DOUBLE_EQ(ma.amatCycles, mb.amatCycles);
}

/**
 * Garbage and every strict prefix of a valid image must fail to
 * decode cleanly — never read past the buffer (ASan-checked), the
 * same contract ColumnarFuzz holds the trace decoder to.
 */
TEST(Checkpoints, LoadRejectsGarbage)
{
    const std::string garbage = "nonsense";
    ByteReader g(reinterpret_cast<const std::uint8_t *>(garbage.data()),
                 garbage.size());
    TraceSimResult r;
    EXPECT_FALSE(r.deserialize(g));

    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 300, true);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim sim(setup, s);
    std::vector<std::uint8_t> bytes = sim.run(trace).serialize();
    ASSERT_GT(bytes.size(), 100u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        ByteReader prefix(bytes.data(), len);
        TraceSimResult out;
        EXPECT_FALSE(out.deserialize(prefix))
            << "prefix of length " << len
            << " decoded successfully";
    }
    ByteReader whole(bytes.data(), bytes.size());
    TraceSimResult out;
    EXPECT_TRUE(out.deserialize(whole));
}

TEST(TimingSim, IndependentPhasesAgreeQualitatively)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 16, 500, true);
    SystemSetup setup = SystemSetup::starnuma();
    TraceSim tsim(setup, s);
    auto placement = tsim.run(trace);

    TimingSim seq(setup, s);
    auto seq_m = seq.run(trace, placement);

    TimingOptions par_opt;
    par_opt.independentPhases = true;
    TimingSim par(setup, s, par_opt);
    auto par_m = par.run(trace, placement);

    // Different cache-warmth policy, same system: results agree in
    // structure (mix sums to 1, pool share present, IPC nonzero and
    // within a loose band of the sequential mode).
    double sum = 0;
    for (double f : par_m.mix)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(par_m.ipc, 0.0);
    EXPECT_GT(par_m.ipc, seq_m.ipc * 0.3);
    EXPECT_LT(par_m.ipc, seq_m.ipc * 3.0);
}

TEST(TimingSim, IndependentPhasesDeterministic)
{
    SimScale s = tinyScale();
    auto trace = syntheticTrace(s, 8, 300);
    SystemSetup setup = SystemSetup::baseline();
    TraceSim tsim(setup, s);
    auto placement = tsim.run(trace);

    TimingOptions opt;
    opt.independentPhases = true;
    TimingSim a(setup, s, opt), b(setup, s, opt);
    auto ma = a.run(trace, placement);
    auto mb = b.run(trace, placement);
    EXPECT_DOUBLE_EQ(ma.ipc, mb.ipc);
    EXPECT_DOUBLE_EQ(ma.amatCycles, mb.amatCycles);
}

TEST(TimingSim, FlatPageMapMatchesHashedMap)
{
    // Step C switches its page map to a flat table over the trace's
    // dense page span. Whether that span is stamped by capture,
    // recovered by a scan, or rejected as implausibly sparse (the
    // hashed map then stays), the simulated results are identical.
    SimScale s = tinyScale();
    trace::WorkloadTrace unstamped = syntheticTrace(s, 16, 400, true);
    const PageSpan span = densePageSpan(unstamped);
    ASSERT_GT(span.pages, 0u);

    trace::WorkloadTrace stamped = unstamped;
    stamped.minPage = span.lo;
    stamped.maxPage = span.last();
    EXPECT_EQ(densePageSpan(stamped).lo, span.lo);
    EXPECT_EQ(densePageSpan(stamped).pages, span.pages);

    trace::WorkloadTrace sparse = unstamped;
    sparse.minPage = PageNum(1);
    sparse.maxPage = PageNum(std::uint64_t(1) << 40);
    EXPECT_EQ(densePageSpan(sparse).pages, 0u);

    SystemSetup setup = SystemSetup::starnuma();
    auto placement = TraceSim(setup, s).run(stamped);
    TimingOptions opt;
    opt.independentPhases = true;
    auto run = [&](const trace::WorkloadTrace &t) {
        return metricsSnapshot(TimingSim(setup, s, opt).run(t, placement))
            .values();
    };
    auto want = run(stamped);
    EXPECT_EQ(run(unstamped), want);
    EXPECT_EQ(run(sparse), want);
}

} // anonymous namespace
} // namespace driver
} // namespace starnuma
