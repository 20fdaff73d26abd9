/**
 * @file
 * Unit tests for the simulation substrate: types/unit conversion,
 * the event queue, deterministic RNG, stats, and table formatting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/scale.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace
{

TEST(Types, NsToCyclesAtPaperClock)
{
    // 2.4 GHz: 1 ns = 2.4 cycles.
    EXPECT_EQ(nsToCycles(0.0), Cycles(0));
    EXPECT_EQ(nsToCycles(10.0), Cycles(24));
    EXPECT_EQ(nsToCycles(80.0), Cycles(192));
    EXPECT_EQ(nsToCycles(130.0), Cycles(312));
    EXPECT_EQ(nsToCycles(360.0), Cycles(864));
    EXPECT_EQ(nsToCycles(180.0), Cycles(432));
}

TEST(Types, CyclesToNsRoundTrips)
{
    for (double ns : {50.0, 80.0, 100.0, 280.0, 360.0})
        EXPECT_NEAR(cyclesToNs(nsToCycles(ns)), ns, 0.25);
}

TEST(Types, SerializationCycles)
{
    // 64B at 3 GB/s: 21.33 ns = 51.2 cycles.
    EXPECT_EQ(serializationCycles(64, 3.0), Cycles(51));
    // 72B data message at 6 GB/s (CXL scaled): 12 ns = 28.8 cycles.
    EXPECT_EQ(serializationCycles(72, 6.0), Cycles(29));
}

TEST(Types, AddressHelpers)
{
    EXPECT_EQ(blockAddr(0x12345), 0x12340u);
    EXPECT_EQ(pageAddr(0x12345), 0x12000u);
    EXPECT_EQ(pageNumber(0x12345), PageNum(0x12));
    EXPECT_EQ(blockAddr(0x1000), 0x1000u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue<int> q;
    std::vector<int> order;
    q.schedule(Cycles(30), 3);
    q.schedule(Cycles(10), 1);
    q.schedule(Cycles(20), 2);
    q.run([&](int id) { order.push_back(id); });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, SameCycleEventsAreFifo)
{
    EventQueue<int> q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(Cycles(5), i);
    q.run([&](int id) { order.push_back(id); });
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    // The handler runs after its event left the queue, so it may
    // schedule more.
    EventQueue<int> q;
    int fired = 0;
    q.schedule(Cycles(1), 0);
    q.run([&](int id) {
        ++fired;
        if (id == 0)
            q.scheduleAfter(Cycles(4), 1);
    });
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), Cycles(5));
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue<int> q;
    int fired = 0;
    auto count = [&](int) { ++fired; };
    q.schedule(Cycles(10), 0);
    q.schedule(Cycles(100), 0);
    EXPECT_EQ(q.run(count, Cycles(50)), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run(count);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EmptyRunAdvancesToLimit)
{
    EventQueue<int> q;
    q.run([](int) {}, Cycles(1000));
    EXPECT_EQ(q.now(), Cycles(1000));
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue<int> q;
    int fired = 0;
    auto count = [&](int) { ++fired; };
    q.schedule(Cycles(1), 0);
    q.schedule(Cycles(2), 0);
    EXPECT_TRUE(q.step(count));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step(count));
    EXPECT_FALSE(q.step(count));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next32() == b.next32());
    EXPECT_LT(same, 3);
}

TEST(Rng, Range32Bounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.range32(17), 17u);
    EXPECT_EQ(r.range32(0), 0u);
    EXPECT_EQ(r.range32(1), 0u);
}

TEST(Rng, Range64Inclusive)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range64(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SkewedFavorsLowIndices)
{
    Rng r(13);
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i)
        low += (r.skewed(1000, 3.0) < 100);
    // With theta=3, ~46% of mass lands in the first 10% of indices.
    EXPECT_GT(static_cast<double>(low) / static_cast<double>(total),
              0.30);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanBasics)
{
    stats::Mean m;
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
    m.sample(10);
    m.sample(20);
    m.sample(30);
    EXPECT_DOUBLE_EQ(m.mean(), 20.0);
    EXPECT_DOUBLE_EQ(m.min(), 10.0);
    EXPECT_DOUBLE_EQ(m.max(), 30.0);
    EXPECT_EQ(m.count(), 3u);
    m.reset();
    EXPECT_EQ(m.count(), 0u);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    stats::Histogram h(4, 10.0);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(99); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
}

TEST(Stats, HistogramWeightedSamples)
{
    stats::Histogram h(4, 1.0);
    h.sample(0, 10);
    h.sample(2, 30);
    EXPECT_EQ(h.total(), 40u);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.75);
}

TEST(Stats, HistogramQuantile)
{
    stats::Histogram h(10, 1.0);
    for (int i = 0; i < 10; ++i)
        h.sample(i);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
    EXPECT_NEAR(h.quantile(0.9), 9.0, 1.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(stats::geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(stats::geomean({1.2, 1.5, 2.0}), 1.5326, 1e-3);
    EXPECT_DOUBLE_EQ(stats::geomean({}), 0.0);
}

TEST(Table, FormatsAligned)
{
    TextTable t({"Workload", "Speedup"});
    t.addRow({"BFS", TextTable::num(1.7, 2)});
    t.addRow({"TC", TextTable::num(1.63, 2)});
    std::string s = t.str();
    EXPECT_NE(s.find("Workload"), std::string::npos);
    EXPECT_NE(s.find("1.70"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, PctFormatting)
{
    EXPECT_EQ(TextTable::pct(0.48), "48.0%");
    EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(Scale, DerivedQuantities)
{
    SimScale s = SimScale::sc1();
    EXPECT_EQ(s.threads(), 64);
    EXPECT_EQ(s.chassis(), 4);
    EXPECT_EQ(s.detailInstructions(), 40000u);
}

TEST(Scale, Sc2TriplesDetail)
{
    EXPECT_DOUBLE_EQ(SimScale::sc2().detailFraction, 0.30);
    EXPECT_EQ(SimScale::sc2().detailInstructions(),
              3 * SimScale::sc1().detailInstructions());
}

TEST(Scale, Sc3DoublesThreads)
{
    EXPECT_EQ(SimScale::sc3().threads(),
              2 * SimScale::sc1().threads());
}

} // anonymous namespace
} // namespace starnuma
