/**
 * @file
 * Tests for the trace substrate: record packing, capture filtering
 * (and its equivalence with mem::Cache), setup-mode first touch, the
 * pinned step-A trace bytes, and the sharing-profile analysis behind
 * Figs 2 and 13. The trace format's round trips and decoder fuzzing
 * live in columnar_trace_test.cc.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/cas/hash.hh"
#include "sim/rng.hh"
#include "sim/scale.hh"
#include "trace/capture.hh"
#include "trace/columnar.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace trace
{
namespace
{

TEST(MemRecord, PacksAddressAndWriteFlag)
{
    MemRecord r(123, 0xdeadbeef, true);
    EXPECT_EQ(r.instr, 123u);
    EXPECT_EQ(r.vaddr(), 0xdeadbeefu);
    EXPECT_TRUE(r.isWrite());
    MemRecord ro(7, 0x1000, false);
    EXPECT_FALSE(ro.isWrite());
    EXPECT_EQ(ro.vaddr(), 0x1000u);
}

TEST(Capture, AllocIsPageAlignedAndDisjoint)
{
    CaptureContext ctx(2);
    Addr a = ctx.alloc(100);
    Addr b = ctx.alloc(5000);
    EXPECT_EQ(a % pageBytes, 0u);
    EXPECT_EQ(b % pageBytes, 0u);
    EXPECT_GE(b, a + pageBytes);
    EXPECT_EQ(ctx.footprint(), 3 * pageBytes);
}

TEST(Capture, FilterSuppressesHits)
{
    CaptureContext ctx(1, {1024, 4});
    Addr a = ctx.alloc(pageBytes);
    ctx.load(0, a);
    ctx.load(0, a);      // filter hit: no record
    ctx.load(0, a + 8);  // same block: no record
    ctx.load(0, a + 64); // new block: record
    auto t = ctx.take("x", 4);
    ASSERT_EQ(t.perThread[0].size(), 2u);
    EXPECT_EQ(t.perThread[0][0].vaddr(), a);
    EXPECT_EQ(t.perThread[0][1].vaddr(), a + 64);
}

TEST(Capture, MemoryOpsCountAsInstructions)
{
    CaptureContext ctx(1);
    Addr a = ctx.alloc(pageBytes);
    ctx.instr(0, 10);
    ctx.load(0, a);
    ctx.store(0, a);
    EXPECT_EQ(ctx.instructions(0), 12u);
}

TEST(Capture, SetupModeRecordsFirstTouchOnly)
{
    CaptureContext ctx(4);
    Addr a = ctx.alloc(4 * pageBytes);
    ctx.beginSetup();
    ctx.store(1, a);              // thread 1 touches page 0
    ctx.store(2, a + pageBytes);  // thread 2 touches page 1
    ctx.store(3, a);              // page 0 already touched
    ctx.load(3, a + 2 * pageBytes); // reads do not claim pages
    ctx.endSetup();
    EXPECT_EQ(ctx.instructions(1), 0u);
    auto t = ctx.take("x", 0);
    ASSERT_EQ(t.firstTouches.size(), 2u);
    EXPECT_EQ(t.firstTouches[0].page, pageNumber(a));
    EXPECT_EQ(t.firstTouches[0].thread, 1);
    EXPECT_EQ(t.firstTouches[1].thread, 2);
    EXPECT_EQ(t.totalRecords(), 0u);
}

TEST(Capture, PerThreadStreamsIndependent)
{
    CaptureContext ctx(2);
    Addr a = ctx.alloc(pageBytes);
    ctx.load(0, a);
    ctx.load(1, a); // both threads miss their own filter
    auto t = ctx.take("x", 1);
    EXPECT_EQ(t.perThread[0].size(), 1u);
    EXPECT_EQ(t.perThread[1].size(), 1u);
}

TEST(Capture, AccessInsideAllocationsOnly)
{
    // The bump allocator's page range is the only legal target:
    // take() reports it as [minPage, maxPage] and the per-page
    // bitmaps cover exactly it.
    CaptureContext ctx(1);
    Addr a = ctx.alloc(2 * pageBytes);
    ctx.store(0, a + 2 * pageBytes - 1);
    auto t = ctx.take("x", 1);
    EXPECT_EQ(t.minPage, pageNumber(a));
    EXPECT_EQ(t.maxPage, pageNumber(a + pageBytes));
    ASSERT_EQ(t.writtenPages.size(), 1u);
    EXPECT_EQ(t.writtenPages[0], pageNumber(a + pageBytes));
}

using CaptureDeathTest = ::testing::Test;

TEST(CaptureDeathTest, AccessOutsideAllocationPanics)
{
    CaptureContext ctx(1);
    Addr a = ctx.alloc(pageBytes);
    EXPECT_DEATH(ctx.load(0, a + pageBytes), "outside the allocated");
    EXPECT_DEATH(ctx.store(0, a - 1), "outside the allocated");
    ctx.beginSetup();
    EXPECT_DEATH(ctx.store(0, a + pageBytes), "outside the allocated");
    CaptureContext empty(1); // nothing allocated: nothing is legal
    EXPECT_DEATH(empty.load(0, a), "outside the allocated");
}

// Step A's bytes, pinned: the columnar encoding of each kernel's
// tiny-scale capture at seed 1. Downstream goldens only see these
// through replay and timing; a change here is a change to a kernel,
// its dataset, the capture filter or the trace format.
TEST(Capture, TraceDigestsPinned)
{
    const std::pair<const char *, const char *> pinned[] = {
        {"sssp", "714bdc17d12ce0fbf4c1bfa19a185a7c"},
        {"bfs", "7934c997e7e72b57e50d81210b7e0740"},
        {"cc", "f87054ed71e5689d444af6d8b0e48074"},
        {"tc", "8b02b75b49a444d829c44ee45ef46b23"},
        {"masstree", "8e5f1e5a5770ccfd4531d963c2e20e81"},
        {"tpcc", "853622f80fcfdf6bf5bdab3b71fc8285"},
        {"fmi", "a8366a39e023eda99f464534b3ee2ba9"},
        {"poa", "4ed83ed8d7a47deb11a885d9300aaabf"},
    };
    ASSERT_EQ(std::size(pinned), workloads::workloadNames().size());
    for (auto [name, digest] : pinned) {
        auto trace = workloads::makeWorkload(name)->capture(
            SimScale::tiny());
        EXPECT_EQ(cas::hashBytes(encodeColumnar(trace)).hex(), digest)
            << name;
    }
}

// The capture filter must hit and miss exactly where a mem::Cache
// of the same geometry does, on streams that thrash, reuse and
// stride across sets.
TEST(CaptureFilter, MatchesMemCacheHitSequence)
{
    const mem::CacheConfig geometries[] = {
        {256 * 1024, 8}, // the capture default
        {1024, 4},       // Capture.FilterSuppressesHits
        {4096, 1},       // direct mapped
        {5 * 64 * 2, 2}, // 5 sets round up to 8
    };
    for (const mem::CacheConfig &g : geometries) {
        CaptureFilter filter(g);
        mem::Cache cache(g);
        Rng rng(g.sizeBytes + g.ways);
        int mismatches = 0;
        auto check = [&](Addr addr) {
            bool write = rng.chance(0.3); // dirty bits change nothing
            if (filter.access(addr) != cache.access(addr, write).hit &&
                mismatches++ == 0)
                ADD_FAILURE() << "geometry " << g.sizeBytes << "/"
                              << g.ways << ": first mismatch at "
                              << addr;
        };
        // Random addresses over a span a few times the capacity.
        Addr span = 4 * g.sizeBytes;
        for (int i = 0; i < 200000; ++i)
            check(0x10000000 + rng.next32() % span);
        // Strided sweeps, one of them a whole way apart (every
        // access in one set), repeated so reuse and eviction both
        // happen.
        for (Addr stride : {Addr(8), Addr(64), Addr(192), Addr(4096),
                            g.sizeBytes / g.ways})
            for (int pass = 0; pass < 3; ++pass)
                for (Addr a = 0; a < 2 * g.sizeBytes; a += stride)
                    check(0x20000000 + a);
        EXPECT_EQ(mismatches, 0);
        EXPECT_GT(cache.hits(), 0u);
        EXPECT_GT(cache.misses(), 0u);
    }
}

TEST(Trace, RecordsPerKiloInstruction)
{
    WorkloadTrace t;
    t.threads = 2;
    t.instructionsPerThread = 1000;
    t.perThread.resize(2);
    for (int i = 0; i < 10; ++i)
        t.perThread[0].emplace_back(i, 0x1000 + i * 64, false);
    EXPECT_DOUBLE_EQ(t.recordsPerKiloInstruction(), 5.0);
}

// --- SharingProfile ---

WorkloadTrace
syntheticTrace()
{
    // 8 threads = 4 sockets x 2 cores. Page 0: private to socket 0.
    // Page 1: shared by all 4 sockets, heavily accessed, written.
    // Page 2: shared by 2 sockets, read-only.
    WorkloadTrace t;
    t.threads = 8;
    t.instructionsPerThread = 100;
    t.perThread.resize(8);
    auto at = [](int page, int off) {
        return static_cast<Addr>(page) * pageBytes + off;
    };
    t.perThread[0].emplace_back(1, at(0, 0), false);
    for (int th = 0; th < 8; ++th)
        for (int i = 0; i < 10; ++i)
            t.perThread[th].emplace_back(2 + i, at(1, th * 64 + i),
                                         th == 3);
    t.perThread[0].emplace_back(50, at(2, 0), false);
    t.perThread[2].emplace_back(50, at(2, 8), false);
    return t;
}

TEST(SharingProfile, DegreeDistribution)
{
    auto t = syntheticTrace();
    SharingProfile p(t, 2, 4);
    EXPECT_EQ(p.totalPages(), 3u);
    EXPECT_DOUBLE_EQ(p.pageFraction(1), 1.0 / 3);
    EXPECT_DOUBLE_EQ(p.pageFraction(2), 1.0 / 3);
    EXPECT_DOUBLE_EQ(p.pageFraction(4), 1.0 / 3);
    EXPECT_DOUBLE_EQ(p.pageFraction(3), 0.0);
}

TEST(SharingProfile, AccessConcentration)
{
    auto t = syntheticTrace();
    SharingProfile p(t, 2, 4);
    // 80 of 83 accesses hit the 4-sharer page.
    EXPECT_NEAR(p.accessFraction(4), 80.0 / 83, 1e-9);
    EXPECT_NEAR(p.accessesAbove(2), 80.0 / 83, 1e-9);
    EXPECT_DOUBLE_EQ(p.pagesWithAtMost(2), 2.0 / 3);
}

TEST(SharingProfile, ReadWriteClassification)
{
    auto t = syntheticTrace();
    SharingProfile p(t, 2, 4);
    EXPECT_DOUBLE_EQ(p.readWriteAccessFraction(4), 1.0);
    EXPECT_DOUBLE_EQ(p.readWritePageFraction(2), 0.0);
}

TEST(SharingProfile, InterChassisEstimate)
{
    // §II-B: accesses to fully shared pages distribute uniformly;
    // with 4 chassis of 4 sockets, 75% land on a remote chassis.
    EXPECT_DOUBLE_EQ(SharingProfile::interChassisFraction(16, 4),
                     0.75);
}

} // anonymous namespace
} // namespace trace
} // namespace starnuma
