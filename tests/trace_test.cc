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

static_assert(sizeof(MemRecord) == 8);

TEST(MemRecord, PacksAddressAndWriteFlag)
{
    // A record keeps the block, not the byte within it.
    MemRecord r(123, 0xdeadbeef, true);
    EXPECT_EQ(r.instr, 123u);
    EXPECT_EQ(r.block(), 0xdeadbeefu / blockBytes);
    EXPECT_EQ(r.vaddr(), 0xdeadbec0u);
    EXPECT_TRUE(r.isWrite());
    MemRecord ro(7, 0x1000, false);
    EXPECT_FALSE(ro.isWrite());
    EXPECT_EQ(ro.vaddr(), 0x1000u);
    // The largest block and count a record holds.
    Addr top = Addr(MemRecord::writeBit - 1) * blockBytes;
    MemRecord hi(MemRecord::maxInstr, top, true);
    EXPECT_EQ(hi.instr, MemRecord::maxInstr);
    EXPECT_EQ(hi.vaddr(), top);
    EXPECT_TRUE(hi.isWrite());
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

// Records hold u32 instruction counts: a thread that runs past
// MemRecord::maxInstr cannot be taken, one that stops at it can.
TEST(CaptureDeathTest, InstructionCountBeyondRecordPanics)
{
    CaptureContext at(1);
    at.instr(0, MemRecord::maxInstr);
    EXPECT_EQ(at.take("x", 0).threads, 1);
    CaptureContext over(1);
    over.instr(0, MemRecord::maxInstr + 1);
    EXPECT_DEATH(over.take("x", 0), "overflows a trace record");
}

// Records hold 31-bit block numbers: the allocator may fill the
// address space up to 2^31 blocks (128 GB) and no further. Only the
// page bitmaps grow, so this costs a few MB.
TEST(CaptureDeathTest, AllocationBeyondRecordBlocksPanics)
{
    const Addr limit = Addr(MemRecord::writeBit) * blockBytes;
    CaptureContext ctx(1);
    Addr a = ctx.alloc(pageBytes);
    ctx.alloc(limit - a - 2 * pageBytes); // ends one page short
    EXPECT_DEATH(ctx.alloc(pageBytes), "address space exhausted");
}

// A run longer than a record's instruction count fails before any
// setup work.
TEST(CaptureDeathTest, PhasesBeyondRecordInstructionsPanic)
{
    SimScale s = SimScale::tiny();
    s.phases = 5;
    s.phaseInstructions = 1000000000; // the paper's phase length
    EXPECT_DEATH(workloads::makeWorkload("bfs")->capture(s),
                 "overflow a trace record");
}

// Step A's bytes, pinned: the columnar encoding of each kernel's
// tiny-scale capture at seeds 1 and 13. Downstream goldens only see
// these through replay and timing; a change here is a change to a
// kernel, its dataset, the capture filter or the trace format.
TEST(Capture, TraceDigestsPinned)
{
    struct Pin
    {
        std::uint64_t seed;
        const char *name;
        const char *digest;
    };
    // poa reads the same at both seeds: the seed only picks bases
    // and alignment outcomes, and a thread's first traceback (the
    // only step whose addresses depend on them) comes after 80K
    // instructions of DP fill.
    const Pin pinned[] = {
        {1, "sssp", "73836aee7736266c304aada3cfd641cc"},
        {1, "bfs", "530701ce6768d030814c6a870aef9d47"},
        {1, "cc", "24e8570227663f0466f1149ba5fa42f2"},
        {1, "tc", "ad6e1403bb49932ce1ebbe3e083f3dc5"},
        {1, "masstree", "2c9fad06a31976298e28b874c924a097"},
        {1, "tpcc", "3f20b4d4a7f27eb0ffe89d16a8700da3"},
        {1, "fmi", "b2792e43a064f1e44d656b50ad996af3"},
        {1, "poa", "7ac152ac61541c4cfd9780169a6c78f9"},
        {13, "sssp", "3cd66649edb25bafa602540116a364f4"},
        {13, "bfs", "04dfb34957feb7c7863de91babb7c3f4"},
        {13, "cc", "6095582d40a626db5b772b6eaf3bc7bb"},
        {13, "tc", "456349af301f5ae36a5682ef103bc2cb"},
        {13, "masstree", "5f01183688d5e205b51f2bb23050230f"},
        {13, "tpcc", "488f3d535c4bbade7f06fcbafb0165fc"},
        {13, "fmi", "993f830660c496c983bce70c95bca28b"},
        {13, "poa", "7ac152ac61541c4cfd9780169a6c78f9"},
    };
    ASSERT_EQ(std::size(pinned), 2 * workloads::workloadNames().size());
    for (const Pin &pin : pinned) {
        auto trace = workloads::makeWorkload(pin.name, pin.seed)
                         ->capture(SimScale::tiny());
        EXPECT_EQ(cas::hashBytes(encodeColumnar(trace)).hex(),
                  pin.digest)
            << pin.name << " seed " << pin.seed;
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
        CaptureFilter filter(FilterGeometry{g.sizeBytes, g.ways});
        mem::Cache cache(g);
        Rng rng(g.sizeBytes + g.ways);
        int mismatches = 0;
        auto check = [&](Addr addr) {
            bool write = rng.chance(0.3); // dirty bits change nothing
            bool hit = filter.access(addr);
            if (hit != cache.access(addr, write).hit &&
                mismatches++ == 0)
                ADD_FAILURE() << "geometry " << g.sizeBytes << "/"
                              << g.ways << ": first mismatch at "
                              << addr;
            return hit;
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
        // One set through every path of the filter: misses that
        // evict, a hit at each depth 1..ways-1 and an immediate
        // repeat after each (the MRU fast path). The test keeps the
        // set's blocks in MRU order to pick each depth's block.
        Addr sets = 1;
        while (sets < g.sizeBytes / (blockBytes * g.ways))
            sets <<= 1;
        std::vector<Addr> mru;
        Addr fresh = 0x30000000; // never accessed above
        auto use = [&](std::size_t depth) {
            bool known = depth < mru.size();
            Addr addr = known ? mru[depth] : fresh;
            if (known)
                mru.erase(mru.begin() + depth);
            else
                fresh += sets * blockBytes; // same set
            mru.insert(mru.begin(), addr);
            if (mru.size() > static_cast<std::size_t>(g.ways))
                mru.pop_back();
            EXPECT_EQ(check(addr), known)
                << "geometry " << g.sizeBytes << "/" << g.ways
                << ", depth " << depth;
        };
        for (int round = 0; round < 3; ++round) {
            for (int w = 0; w < g.ways; ++w)
                use(mru.size());
            for (int d = 1; d < g.ways; ++d) {
                use(d);
                use(0);
            }
            use(0);
            use(mru.size());
        }
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
