/**
 * @file
 * Determinism proof for the parallel experiment engine. The pool
 * executes independent tasks and merges results in canonical order,
 * so nothing observable may depend on the worker count: the same
 * sweep run with pool sizes 1, 4, and 8 must produce bitwise-
 * identical RunMetrics and identical TraceSimResult placements.
 * Also covers the ThreadPool primitive itself (full coverage of
 * indices, nested fan-out) and the memoized trace cache
 * under concurrency (N simultaneous requests, exactly one capture).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "driver/experiment.hh"
#include "driver/sweep.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace starnuma
{
namespace
{

// --- ThreadPool primitive ---

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // More outer tasks than workers, each fanning out again: the
    // caller-participation rule must keep everything moving.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, ParallelMapKeepsCanonicalOrder)
{
    ThreadPool pool(4);
    auto out = pool.parallelMap<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvironment)
{
    // The env var is read at pool construction; exercise the parser
    // directly rather than mutating the test process environment.
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(TaskSeed, DistinctTasksGetDistinctStreams)
{
    std::uint64_t a = taskSeed({"bfs", "baseline"}, 0);
    EXPECT_EQ(a, taskSeed({"bfs", "baseline"}, 0)); // reproducible
    EXPECT_NE(a, taskSeed({"bfs", "baseline"}, 1));
    EXPECT_NE(a, taskSeed({"bfs", "starnuma"}, 0));
    EXPECT_NE(a, taskSeed({"tc", "baseline"}, 0));
    // Part boundaries matter: {"ab","c"} != {"a","bc"}.
    EXPECT_NE(taskSeed({"ab", "c"}), taskSeed({"a", "bc"}));
}

// --- Determinism across pool sizes ---

/** Field-by-field exact comparison, plus the raw-bytes check that
 *  backs the "bitwise-identical" claim. */
void
expectMetricsBitwiseEqual(const driver::RunMetrics &a,
                          const driver::RunMetrics &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.detailedMisses, b.detailedMisses);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.amatCycles, b.amatCycles);
    EXPECT_EQ(a.unloadedAmatCycles, b.unloadedAmatCycles);
    for (int i = 0; i < driver::accessTypes; ++i) {
        EXPECT_EQ(a.mix[i], b.mix[i]) << "mix[" << i << "]";
        EXPECT_EQ(a.typeLatency[i], b.typeLatency[i])
            << "typeLatency[" << i << "]";
    }
    EXPECT_EQ(a.migrationStallCycles, b.migrationStallCycles);
    EXPECT_EQ(a.upiUtilization, b.upiUtilization);
    EXPECT_EQ(a.numalinkUtilization, b.numalinkUtilization);
    EXPECT_EQ(a.cxlUtilization, b.cxlUtilization);
    EXPECT_EQ(a.maxLinkUtilization, b.maxLinkUtilization);
    EXPECT_EQ(a.meanLinkQueueNs, b.meanLinkQueueNs);
    EXPECT_EQ(a.meanDramQueueNs, b.meanDramQueueNs);
    EXPECT_EQ(a.migratedPages, b.migratedPages);
    EXPECT_EQ(a.poolMigrationFraction, b.poolMigrationFraction);
    EXPECT_EQ(a.coherenceTransactions, b.coherenceTransactions);
    EXPECT_EQ(a.blockTransfers, b.blockTransfers);
    EXPECT_EQ(a.shootdownPages, b.shootdownPages);
    EXPECT_EQ(
        std::memcmp(&a, &b, sizeof(driver::RunMetrics)), 0);
}

void
expectPlacementsEqual(const driver::TraceSimResult &a,
                      const driver::TraceSimResult &b)
{
    ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
    for (std::size_t p = 0; p < a.checkpoints.size(); ++p) {
        const auto &ca = a.checkpoints[p];
        const auto &cb = b.checkpoints[p];
        EXPECT_EQ(ca.pageHome, cb.pageHome) << "phase " << p;
        ASSERT_EQ(ca.regionMigrations.size(),
                  cb.regionMigrations.size());
        for (std::size_t i = 0; i < ca.regionMigrations.size();
             ++i) {
            EXPECT_EQ(ca.regionMigrations[i].region,
                      cb.regionMigrations[i].region);
            EXPECT_EQ(ca.regionMigrations[i].from,
                      cb.regionMigrations[i].from);
            EXPECT_EQ(ca.regionMigrations[i].to,
                      cb.regionMigrations[i].to);
            EXPECT_EQ(ca.regionMigrations[i].victimEviction,
                      cb.regionMigrations[i].victimEviction);
        }
        ASSERT_EQ(ca.pageMigrations.size(),
                  cb.pageMigrations.size());
        for (std::size_t i = 0; i < ca.pageMigrations.size(); ++i) {
            EXPECT_EQ(ca.pageMigrations[i].page,
                      cb.pageMigrations[i].page);
            EXPECT_EQ(ca.pageMigrations[i].from,
                      cb.pageMigrations[i].from);
            EXPECT_EQ(ca.pageMigrations[i].to,
                      cb.pageMigrations[i].to);
        }
    }
    EXPECT_EQ(a.footprintPages, b.footprintPages);
    EXPECT_EQ(a.poolCapacityPages, b.poolCapacityPages);
    EXPECT_EQ(a.migratedRegions, b.migratedRegions);
    EXPECT_EQ(a.migratedPagesTotal, b.migratedPagesTotal);
    EXPECT_EQ(a.poolMigrationFraction, b.poolMigrationFraction);
    EXPECT_EQ(a.victimEvictions, b.victimEvictions);
    EXPECT_EQ(a.pingPongSuppressed, b.pingPongSuppressed);
    EXPECT_EQ(a.pagesInPool, b.pagesInPool);
    EXPECT_EQ(a.replication.replicated, b.replication.replicated);
    EXPECT_EQ(a.tlbShootdownsSent, b.tlbShootdownsSent);
    EXPECT_EQ(a.tlbShootdownsSaved, b.tlbShootdownsSaved);
}

TEST(ParallelDeterminism, PoolSizeNeverChangesExperimentOutput)
{
    SimScale s = SimScale::tiny();
    std::vector<driver::SweepJob> jobs = driver::crossJobs(
        {"bfs", "tpcc", "masstree"},
        {driver::SystemSetup::baseline(),
         driver::SystemSetup::starnuma()},
        s);

    // Pool size 1 is the serial reference; 4 and 8 must reproduce
    // it bit for bit, including with more workers than host cores.
    ThreadPool::setGlobalThreads(1);
    std::vector<driver::ExperimentResult> serial =
        driver::runSweep(jobs);

    for (int pool_size : {4, 8}) {
        ThreadPool::setGlobalThreads(pool_size);
        std::vector<driver::ExperimentResult> parallel =
            driver::runSweep(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("pool=" + std::to_string(pool_size) +
                         " job=" + jobs[i].workload + "/" +
                         jobs[i].setup.name);
            expectMetricsBitwiseEqual(serial[i].metrics,
                                      parallel[i].metrics);
            expectPlacementsEqual(serial[i].placement,
                                  parallel[i].placement);
        }
    }
    ThreadPool::setGlobalThreads(0); // restore the default pool
}

TEST(ParallelDeterminism, RepeatedRunsIdenticalAtFixedPoolSize)
{
    SimScale s = SimScale::tiny();
    ThreadPool::setGlobalThreads(4);
    auto a = driver::runExperiment(
        "bfs", driver::SystemSetup::starnuma(), s);
    auto b = driver::runExperiment(
        "bfs", driver::SystemSetup::starnuma(), s);
    expectMetricsBitwiseEqual(a.metrics, b.metrics);
    expectPlacementsEqual(a.placement, b.placement);
    ThreadPool::setGlobalThreads(0);
}

// --- Memoized trace cache under concurrency ---

TEST(TraceCache, ConcurrentRequestsRunExactlyOneCapture)
{
    // A (workload, scale) key no other test uses, so the capture
    // counter delta below is exactly this test's doing.
    SimScale s = SimScale::tiny();
    s.phaseInstructions = 41000;

    constexpr int n_threads = 8;
    std::vector<const trace::WorkloadTrace *> seen(n_threads,
                                                   nullptr);
    std::uint64_t captures_before =
        driver::workloadTraceCaptures();
    {
        std::vector<std::thread> threads;
        threads.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t)
            threads.emplace_back([&seen, &s, t] {
                seen[t] = &driver::workloadTrace("tpcc", s);
            });
        for (auto &th : threads)
            th.join();
    }
    EXPECT_EQ(driver::workloadTraceCaptures() - captures_before,
              1u);
    for (int t = 1; t < n_threads; ++t)
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    ASSERT_NE(seen[0], nullptr);
    EXPECT_EQ(seen[0]->workload, "tpcc");

    // A later request is a hit on the very same object.
    EXPECT_EQ(&driver::workloadTrace("tpcc", s), seen[0]);
    EXPECT_EQ(driver::workloadTraceCaptures() - captures_before,
              1u);
}

} // anonymous namespace
} // namespace starnuma
