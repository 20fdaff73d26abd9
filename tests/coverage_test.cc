/**
 * @file
 * Coverage for the long-tail APIs: link statistics, event-queue
 * accessors, traced-array plumbing, and the panic-on-misuse paths
 * (death tests).
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/table.hh"
#include "topology/link.hh"
#include "topology/topology.hh"
#include "trace/capture.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace
{

using topology::Dir;
using topology::Link;
using topology::LinkType;

TEST(LinkStats, BytesBusyAndQueueAccounting)
{
    Link link(LinkType::UPI, 3.0, nsToCycles(25), "test-link");
    EXPECT_DOUBLE_EQ(link.bandwidthGbps(), 3.0);
    EXPECT_EQ(link.name(), "test-link");

    Cycles a1 = link.transfer(Dir::Forward, Cycles(0), 72);
    Cycles a2 = link.transfer(Dir::Forward, Cycles(0), 72);
    EXPECT_GT(a2, a1);
    EXPECT_EQ(link.bytesMoved(Dir::Forward), 144u);
    EXPECT_EQ(link.bytesMoved(Dir::Backward), 0u);
    EXPECT_EQ(link.busyCycles(Dir::Forward),
              2 * serializationCycles(72, 3.0));
    // The second message queued for one serialization slot.
    EXPECT_DOUBLE_EQ(
        link.meanQueueDelay(Dir::Forward),
        static_cast<double>(serializationCycles(72, 3.0).value()) /
            2.0);
    EXPECT_GT(link.utilization(Dir::Forward, Cycles(1000)), 0.0);
    EXPECT_DOUBLE_EQ(link.utilization(Dir::Forward, Cycles(0)),
                     0.0);
}

TEST(LinkStats, UnloadedArrivalDoesNotMutate)
{
    Link link(LinkType::CXL, 6.0, nsToCycles(50), "cxl");
    Cycles probe = link.unloadedArrival(Cycles(100), 72);
    EXPECT_EQ(probe, Cycles(100) + serializationCycles(72, 6.0) +
                         nsToCycles(50));
    EXPECT_EQ(link.bytesMoved(Dir::Forward), 0u);
    // A real transfer now still starts from an idle link.
    EXPECT_EQ(link.transfer(Dir::Forward, Cycles(100), 72), probe);
}

TEST(EventQueueAccessors, PendingAndEmpty)
{
    EventQueue<int> q;
    EXPECT_TRUE(q.empty());
    q.schedule(Cycles(5), 0);
    q.schedule(Cycles(9), 0);
    q.schedule(Cycles(9 + EventQueue<int>::wheelSpan), 0);
    EXPECT_EQ(q.pending(), 3u);
    EXPECT_FALSE(q.empty());
    q.run([](int) {});
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), 3u);
    EXPECT_EQ(q.now(), Cycles(9 + EventQueue<int>::wheelSpan));
}

TEST(TracedArrayApi, ReadWriteAndAddressing)
{
    trace::CaptureContext ctx(1);
    trace::TracedArray<std::uint32_t> arr;
    arr.allocate(ctx, 100);
    EXPECT_EQ(arr.size(), 100u);
    EXPECT_EQ(arr.addrOf(3), arr.base() + 12);
    arr.write(ctx, 0, 7, 42);
    EXPECT_EQ(arr.read(ctx, 0, 7), 42u);
    EXPECT_EQ(arr[7], 42u);
    EXPECT_EQ(ctx.instructions(0), 2u); // one store + one load
}

TEST(CaptureAccessors, MinInstructions)
{
    trace::CaptureContext ctx(3);
    ctx.instr(0, 10);
    ctx.instr(1, 5);
    ctx.instr(2, 20);
    EXPECT_EQ(ctx.minInstructions(), 5u);
}

// --- panic-on-misuse (death tests) ---

using CoverageDeathTest = ::testing::Test;

TEST(CoverageDeathTest, TableRowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "assertion");
}

TEST(CoverageDeathTest, EventQueueSchedulingIntoPastPanics)
{
    EventQueue<int> q;
    q.schedule(Cycles(100), 0);
    q.run([](int) {});
    EXPECT_DEATH(q.schedule(Cycles(50), 0), "assertion");
}

TEST(CoverageDeathTest, RouteOutOfRangePanics)
{
    topology::Topology t(topology::SystemConfig::baseline16());
    EXPECT_DEATH(t.route(0, 99), "assertion");
}

TEST(CoverageDeathTest, BadCacheGeometryPanics)
{
    EXPECT_DEATH(mem::Cache({0, 4}), "assertion");
    EXPECT_DEATH(mem::Cache({4096, 0}), "assertion");
}

TEST(CoverageDeathTest, CacheBlockBeyondTagRangePanics)
{
    // Block numbers are u32 with the dirty flag in bit 31: block
    // 2^31 - 1 would read back as the empty-way sentinel once dirty.
    mem::Cache c({4096, 4});
    Addr last_ok = (Addr(1) << 31) - 2;
    EXPECT_FALSE(c.access(last_ok * blockBytes, true).hit);
    EXPECT_TRUE(c.contains(last_ok * blockBytes));
    EXPECT_DEATH(c.access((last_ok + 1) * blockBytes, true), "assertion");
    EXPECT_DEATH(c.invalidate((last_ok + 1) * blockBytes), "assertion");
    EXPECT_DEATH(c.contains(Addr(1) << 40), "assertion");
}

} // anonymous namespace
} // namespace starnuma
