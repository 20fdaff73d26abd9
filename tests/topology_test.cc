/**
 * @file
 * Tests for the interconnect model. The headline latency points of
 * the paper (80/130/360/180 ns unloaded memory access; 68 coherent
 * links; 28 NUMALinks) are asserted exactly.
 */

#include <gtest/gtest.h>

#include "topology/topology.hh"

namespace starnuma
{
namespace topology
{
namespace
{

TEST(SystemConfig, PaperLatencyPoints)
{
    SystemConfig c = SystemConfig::starnuma16();
    EXPECT_DOUBLE_EQ(c.localNs(), 80.0);
    EXPECT_DOUBLE_EQ(c.oneHopNs(), 130.0);
    EXPECT_DOUBLE_EQ(c.twoHopNs(), 360.0);
    EXPECT_DOUBLE_EQ(c.poolNs(), 180.0);
}

TEST(SystemConfig, SwitchedPoolLatency)
{
    // Fig 10: +90 ns roundtrip -> 270 ns end-to-end pool access.
    EXPECT_DOUBLE_EQ(SystemConfig::starnumaSwitched().poolNs(), 270.0);
}

TEST(SystemConfig, NamedVariants)
{
    EXPECT_FALSE(SystemConfig::baseline16().hasPool);
    EXPECT_TRUE(SystemConfig::starnuma16().hasPool);
    EXPECT_NEAR(SystemConfig::baselineIsoBW().upiGbps,
                3.0 * 26.4 / 20.8, 1e-9);
    EXPECT_NEAR(SystemConfig::baselineIsoBW().numalinkGbps,
                3.0 * 17.0 / 13.0, 1e-9);
    EXPECT_DOUBLE_EQ(SystemConfig::baseline2xBW().upiGbps, 6.0);
    EXPECT_DOUBLE_EQ(SystemConfig::starnumaHalfBW().cxlGbps, 3.0);
    EXPECT_NEAR(SystemConfig::starnumaSmallPool().poolCapacityFraction,
                1.0 / 17.0, 1e-9);
}

TEST(Topology, LinkInventoryMatchesPaper)
{
    // §V-D: "The 16-socket system features a total of 68 coherent
    // links (28 inter-chassis and 40 intra-chassis)".
    Topology base(SystemConfig::baseline16());
    EXPECT_EQ(base.countLinks(LinkType::UPI), 40);
    EXPECT_EQ(base.countLinks(LinkType::NUMALink), 28);
    EXPECT_EQ(base.countLinks(LinkType::CXL), 0);

    Topology star(SystemConfig::starnuma16());
    EXPECT_EQ(star.countLinks(LinkType::CXL), 16);
    EXPECT_EQ(star.nodes(), 17);
}

TEST(Topology, UnloadedMemoryLatencies)
{
    Topology t(SystemConfig::starnuma16());
    // Local: 80 ns.
    EXPECT_EQ(t.unloadedMemoryAccess(0, 0), nsToCycles(80));
    // Intra-chassis (sockets 0 and 3): 130 ns.
    EXPECT_EQ(t.unloadedMemoryAccess(0, 3), nsToCycles(130));
    // Inter-chassis (sockets 0 and 15): 360 ns.
    EXPECT_EQ(t.unloadedMemoryAccess(0, 15), nsToCycles(360));
    // Pool: 180 ns.
    EXPECT_EQ(t.unloadedMemoryAccess(0, t.poolNode()), nsToCycles(180));
}

TEST(Topology, UnloadedLatenciesSymmetric)
{
    Topology t(SystemConfig::starnuma16());
    for (NodeId a = 0; a < t.nodes(); ++a)
        for (NodeId b = 0; b < t.nodes(); ++b)
            EXPECT_EQ(t.unloadedOneWay(a, b), t.unloadedOneWay(b, a));
}

TEST(Topology, RouteHopCounts)
{
    Topology t(SystemConfig::starnuma16());
    EXPECT_EQ(t.route(0, 0).hops.size(), 0u);
    EXPECT_EQ(t.route(0, 2).hops.size(), 1u);   // same chassis
    EXPECT_EQ(t.route(0, 7).hops.size(), 3u);   // UPI-NUMALink-UPI
    EXPECT_EQ(t.route(0, t.poolNode()).hops.size(), 1u);
    EXPECT_EQ(t.route(t.poolNode(), 9).hops.size(), 1u);
}

TEST(Topology, ClassifyAccesses)
{
    Topology t(SystemConfig::starnuma16());
    EXPECT_EQ(t.classify(0, 0), AccessClass::Local);
    EXPECT_EQ(t.classify(0, 1), AccessClass::OneHop);
    EXPECT_EQ(t.classify(0, 4), AccessClass::TwoHop);
    EXPECT_EQ(t.classify(5, t.poolNode()), AccessClass::Pool);
    EXPECT_EQ(t.classify(12, 15), AccessClass::OneHop);
}

TEST(Topology, ChassisMapping)
{
    Topology t(SystemConfig::baseline16());
    EXPECT_EQ(t.chassisOf(0), 0);
    EXPECT_EQ(t.chassisOf(3), 0);
    EXPECT_EQ(t.chassisOf(4), 1);
    EXPECT_EQ(t.chassisOf(15), 3);
}

TEST(Topology, SendMatchesUnloadedWhenIdle)
{
    Topology t(SystemConfig::starnuma16());
    Cycles arrival = t.send(0, 15, Cycles(1000), ctrlBytes);
    Cycles expect = Cycles(1000) + t.unloadedOneWay(0, 15) +
                    3 * serializationCycles(ctrlBytes, 3.0);
    EXPECT_EQ(arrival, expect);
}

TEST(Topology, ContentionQueuesMessages)
{
    Topology t(SystemConfig::baseline16());
    // Two back-to-back data messages on the same single-link route:
    // the second must wait for the first's serialization slot.
    Cycles a1 = t.send(0, 1, Cycles(0), dataBytes);
    Cycles a2 = t.send(0, 1, Cycles(0), dataBytes);
    EXPECT_EQ(a2 - a1, serializationCycles(dataBytes, 3.0));
}

TEST(Topology, OppositeDirectionsDoNotContend)
{
    Topology t(SystemConfig::baseline16());
    Cycles a1 = t.send(0, 1, Cycles(0), dataBytes);
    Cycles a2 = t.send(1, 0, Cycles(0), dataBytes);
    EXPECT_EQ(a1, a2);
}

TEST(Topology, BytesAccounting)
{
    Topology t(SystemConfig::starnuma16());
    t.send(0, t.poolNode(), Cycles(0), dataBytes);
    t.send(0, 15, Cycles(0), ctrlBytes);
    EXPECT_EQ(t.bytesByType(LinkType::CXL), dataBytes);
    EXPECT_EQ(t.bytesByType(LinkType::UPI), 2 * ctrlBytes);
    EXPECT_EQ(t.bytesByType(LinkType::NUMALink), ctrlBytes);
}

TEST(Topology, ThirtyTwoSocketVariant)
{
    Topology t(SystemConfig::starnuma32());
    EXPECT_EQ(t.sockets(), 32);
    EXPECT_EQ(t.nodes(), 33);
    EXPECT_EQ(t.countLinks(LinkType::CXL), 32);
    // 8 chassis -> 16 ASICs -> 16C2 = 120 NUMALinks.
    EXPECT_EQ(t.countLinks(LinkType::NUMALink), 120);
    // Pool behind a switch: 270 ns end-to-end.
    EXPECT_EQ(t.unloadedMemoryAccess(0, t.poolNode()),
              nsToCycles(270));
    // Inter-chassis latency unchanged by scale.
    EXPECT_EQ(t.unloadedMemoryAccess(0, 31), nsToCycles(360));
}

class AllPairsLatency : public ::testing::TestWithParam<int>
{
};

TEST_P(AllPairsLatency, EveryPairMatchesItsClass)
{
    Topology t(SystemConfig::starnuma16());
    NodeId src = GetParam();
    for (NodeId dst = 0; dst < t.nodes(); ++dst) {
        double expect_ns = 0;
        switch (t.classify(src, dst)) {
          case AccessClass::Local:  expect_ns = 80; break;
          case AccessClass::OneHop: expect_ns = 130; break;
          case AccessClass::TwoHop: expect_ns = 360; break;
          case AccessClass::Pool:   expect_ns = 180; break;
        }
        EXPECT_EQ(t.unloadedMemoryAccess(src, dst),
                  nsToCycles(expect_ns))
            << "src=" << src << " dst=" << dst;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSockets, AllPairsLatency,
                         ::testing::Range(0, 16));

} // anonymous namespace
} // namespace topology
} // namespace starnuma
