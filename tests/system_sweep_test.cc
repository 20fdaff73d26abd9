/**
 * @file
 * Cross-configuration sweeps: every named system configuration must
 * build a consistent topology; unloaded latency classes must hold
 * across all of them; the bandwidth variants must scale exactly;
 * and the 32-socket variant must preserve the paper's structural
 * properties at twice the scale.
 */

#include <gtest/gtest.h>

#include "driver/system_setup.hh"
#include "topology/topology.hh"

namespace starnuma
{
namespace
{

using topology::AccessClass;
using topology::LinkType;
using topology::SystemConfig;
using topology::Topology;

std::vector<SystemConfig>
allConfigs()
{
    return {SystemConfig::baseline16(),
            SystemConfig::starnuma16(),
            SystemConfig::baselineIsoBW(),
            SystemConfig::baseline2xBW(),
            SystemConfig::starnumaHalfBW(),
            SystemConfig::starnumaSwitched(),
            SystemConfig::starnumaSmallPool(),
            SystemConfig::baseline32(),
            SystemConfig::starnuma32()};
}

class EveryConfig : public ::testing::TestWithParam<int>
{
  protected:
    SystemConfig cfg() const { return allConfigs()[GetParam()]; }
};

TEST_P(EveryConfig, TopologyBuildsAndRoutesResolve)
{
    SystemConfig c = cfg();
    Topology t(c);
    EXPECT_EQ(t.sockets(), c.sockets);
    EXPECT_EQ(t.nodes(), c.sockets + (c.hasPool ? 1 : 0));
    for (NodeId a = 0; a < t.nodes(); ++a)
        for (NodeId b = 0; b < t.nodes(); ++b)
            if (a != b) {
                EXPECT_FALSE(t.route(a, b).hops.empty());
            }
}

TEST_P(EveryConfig, LatencyClassesAreOrdered)
{
    SystemConfig c = cfg();
    Topology t(c);
    // local < 1-hop < pool-or-2-hop, for every socket pair.
    Cycles local = t.unloadedMemoryAccess(0, 0);
    for (NodeId dst = 1; dst < t.nodes(); ++dst) {
        Cycles lat = t.unloadedMemoryAccess(0, dst);
        EXPECT_GT(lat, local) << "dst " << dst;
        if (t.classify(0, dst) == AccessClass::TwoHop) {
            EXPECT_EQ(lat, nsToCycles(c.twoHopNs()));
        }
    }
}

TEST_P(EveryConfig, PoolPresenceMatchesLinkInventory)
{
    SystemConfig c = cfg();
    Topology t(c);
    EXPECT_EQ(t.countLinks(LinkType::CXL),
              c.hasPool ? c.sockets : 0);
    // Every socket attaches to exactly 4 UPI links (3 intra-chassis
    // peers + 1 FLEX ASIC): Table I's "4 links per socket".
    EXPECT_EQ(t.countLinks(LinkType::UPI), c.sockets / 4 * 10);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, EveryConfig,
                         ::testing::Range(0, 9));

TEST(BandwidthVariants, ScaleExactly)
{
    EXPECT_DOUBLE_EQ(SystemConfig::baseline2xBW().upiGbps,
                     2 * SystemConfig::baseline16().upiGbps);
    EXPECT_DOUBLE_EQ(SystemConfig::baseline2xBW().numalinkGbps,
                     2 * SystemConfig::baseline16().numalinkGbps);
    EXPECT_DOUBLE_EQ(SystemConfig::starnumaHalfBW().cxlGbps,
                     SystemConfig::starnuma16().cxlGbps / 2);
    // ISO-BW pro-rates by each link's base bandwidth (§V-D).
    double upi_ratio = SystemConfig::baselineIsoBW().upiGbps /
                       SystemConfig::baseline16().upiGbps;
    double nl_ratio = SystemConfig::baselineIsoBW().numalinkGbps /
                      SystemConfig::baseline16().numalinkGbps;
    EXPECT_NEAR(upi_ratio, 26.4 / 20.8, 1e-9);
    EXPECT_NEAR(nl_ratio, 17.0 / 13.0, 1e-9);
}

TEST(BandwidthVariants, OnlyLinkSpeedsDiffer)
{
    // The Fig 11 variants must differ from the baseline in nothing
    // but link bandwidth — same latencies, same memory system.
    SystemConfig base = SystemConfig::baseline16();
    for (SystemConfig c : {SystemConfig::baselineIsoBW(),
                           SystemConfig::baseline2xBW()}) {
        EXPECT_DOUBLE_EQ(c.localNs(), base.localNs());
        EXPECT_DOUBLE_EQ(c.twoHopNs(), base.twoHopNs());
        EXPECT_EQ(c.channelsPerSocket, base.channelsPerSocket);
        EXPECT_EQ(c.hasPool, base.hasPool);
    }
    SystemConfig star = SystemConfig::starnuma16();
    SystemConfig half = SystemConfig::starnumaHalfBW();
    EXPECT_DOUBLE_EQ(half.poolNs(), star.poolNs());
    EXPECT_DOUBLE_EQ(half.poolCapacityFraction,
                     star.poolCapacityFraction);
}

TEST(ThirtyTwoSockets, StructuralProperties)
{
    Topology t(SystemConfig::starnuma32());
    // 8 chassis x 4 sockets; ASIC pairs: 16C2 = 120 NUMALinks.
    EXPECT_EQ(t.countLinks(LinkType::NUMALink), 120);
    EXPECT_EQ(t.countLinks(LinkType::UPI), 80);
    EXPECT_EQ(t.countLinks(LinkType::CXL), 32);
    // Intra-chassis and inter-chassis latencies are scale-free.
    EXPECT_EQ(t.unloadedMemoryAccess(0, 1), nsToCycles(130));
    EXPECT_EQ(t.unloadedMemoryAccess(0, 31), nsToCycles(360));
    // The switched pool stays below the 2-hop latency (§III-B:
    // "still 25% lower than a 2-hop access").
    Cycles pool = t.unloadedMemoryAccess(0, t.poolNode());
    EXPECT_EQ(pool, nsToCycles(270));
    EXPECT_LT(pool, nsToCycles(360));
}

TEST(SystemSetups, AllNamedSetupsAreInternallyConsistent)
{
    using S = driver::SystemSetup;
    for (const S &s :
         {S::baseline(), S::starnuma(), S::starnumaT0(),
          S::starnumaSwitched(), S::baselineIsoBW(),
          S::baseline2xBW(), S::starnumaHalfBW(),
          S::starnumaSmallPool(), S::baselineStatic(),
          S::starnumaStatic(), S::baselineReplication()}) {
        EXPECT_FALSE(s.name.empty());
        EXPECT_EQ(s.regionBytes % pageBytes, 0u);
        // Topology must construct for every named setup.
        Topology t(s.sys);
        EXPECT_EQ(t.hasPool(), s.sys.hasPool);
    }
}

} // anonymous namespace
} // namespace starnuma
