/**
 * @file
 * Workload tests: graph generation, kernel correctness (the
 * algorithms compute real answers), capture integration (every
 * workload reaches its instruction target and produces the access
 * structure the paper relies on — e.g., POA stays thread-private
 * while BFS shares widely).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "trace/profile.hh"
#include "workloads/gap.hh"
#include "workloads/genomics.hh"
#include "workloads/graph.hh"
#include "workloads/kvstore.hh"
#include "workloads/tpcc.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace workloads
{
namespace
{

/** 8-thread scale that keeps workload tests quick. */
SimScale
testScale()
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 30000;
    return s;
}

// --- Graph generation ---

TEST(CsrGraph, KroneckerShape)
{
    Rng rng(1);
    CsrGraph g = CsrGraph::kronecker(10, 8, rng);
    EXPECT_EQ(g.vertices, 1024u);
    // Undirected: directed edge count = 2 * edges = n * degree.
    EXPECT_EQ(g.directedEdges(), 1024u * 8);
    EXPECT_EQ(g.offsets.size(), 1025u);
    EXPECT_EQ(g.offsets.back(), g.directedEdges());
}

TEST(CsrGraph, AdjacencySortedAndSymmetric)
{
    Rng rng(2);
    CsrGraph g = CsrGraph::kronecker(9, 6, rng);
    for (std::uint32_t v = 0; v < g.vertices; ++v)
        for (std::uint64_t e = g.offsets[v] + 1; e < g.offsets[v + 1];
             ++e)
            EXPECT_LE(g.neighbors[e - 1], g.neighbors[e]);
    // Spot-check symmetry: u in adj(v) iff v in adj(u).
    for (std::uint32_t v = 0; v < 64; ++v) {
        for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1];
             ++e) {
            std::uint32_t u = g.neighbors[e];
            bool found = std::binary_search(
                g.neighbors.begin() + g.offsets[u],
                g.neighbors.begin() + g.offsets[u + 1], v);
            EXPECT_TRUE(found) << v << "<->" << u;
        }
    }
}

TEST(CsrGraph, SkewedDegreeDistribution)
{
    Rng rng(3);
    CsrGraph g = CsrGraph::kronecker(12, 16, rng);
    std::uint64_t max_degree = 0;
    for (std::uint32_t v = 0; v < g.vertices; ++v)
        max_degree = std::max(max_degree, g.degree(v));
    // R-MAT hubs: the max degree far exceeds the average.
    EXPECT_GT(max_degree, 10u * 16);
}

TEST(CsrGraph, DeterministicForSeed)
{
    Rng a(7), b(7);
    CsrGraph g1 = CsrGraph::kronecker(8, 4, a);
    CsrGraph g2 = CsrGraph::kronecker(8, 4, b);
    EXPECT_EQ(g1.neighbors, g2.neighbors);
}

// The reference build: scatter each edge into both endpoints' lists
// in edge order, then sort every list.
CsrGraph
sortedScatterKronecker(int scale, int avg_degree, Rng &rng)
{
    std::uint32_t n = 1u << scale;
    std::uint64_t edges =
        static_cast<std::uint64_t>(n) * avg_degree / 2;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
    while (edge_list.size() < edges) {
        std::uint32_t u = 0, v = 0;
        for (int bit = 0; bit < scale; ++bit) {
            double r = rng.uniform();
            int quadrant = r < 0.57 ? 0 : r < 0.76 ? 1 : r < 0.95 ? 2 : 3;
            u = (u << 1) | (quadrant >> 1);
            v = (v << 1) | (quadrant & 1);
        }
        if (u != v)
            edge_list.emplace_back(u, v);
    }
    CsrGraph g;
    g.vertices = n;
    g.offsets.assign(n + 1, 0);
    for (auto [u, v] : edge_list) {
        ++g.offsets[u + 1];
        ++g.offsets[v + 1];
    }
    for (std::uint32_t v = 0; v < n; ++v)
        g.offsets[v + 1] += g.offsets[v];
    g.neighbors.assign(g.offsets[n], 0);
    std::vector<std::uint64_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (auto [u, v] : edge_list) {
        g.neighbors[cursor[u]++] = v;
        g.neighbors[cursor[v]++] = u;
    }
    for (std::uint32_t v = 0; v < n; ++v)
        std::sort(g.neighbors.begin() + g.offsets[v],
                  g.neighbors.begin() + g.offsets[v + 1]);
    return g;
}

// The counting-scatter build gives the sorted-scatter graph exactly,
// duplicate edges included (small scales are full of them).
TEST(CsrGraph, CountingScatterMatchesSortedScatter)
{
    std::uint64_t duplicates = 0;
    for (std::uint64_t seed : {1, 13}) {
        for (int scale = 1; scale <= 12; ++scale) {
            Rng a(seed), b(seed);
            CsrGraph g = CsrGraph::kronecker(scale, 8, a);
            CsrGraph ref = sortedScatterKronecker(scale, 8, b);
            EXPECT_EQ(g.vertices, ref.vertices);
            EXPECT_EQ(g.offsets, ref.offsets)
                << "scale " << scale << " seed " << seed;
            EXPECT_EQ(g.neighbors, ref.neighbors)
                << "scale " << scale << " seed " << seed;
            for (std::uint32_t v = 0; v < ref.vertices; ++v)
                for (std::uint64_t e = ref.offsets[v] + 1;
                     e < ref.offsets[v + 1]; ++e)
                    duplicates +=
                        ref.neighbors[e] == ref.neighbors[e - 1];
        }
    }
    EXPECT_GT(duplicates, 0u);
}

// --- Capture integration for every workload ---

/** Small instances so tests stay fast. */
std::unique_ptr<Workload>
makeSmall(const std::string &name)
{
    if (name == "bfs")
        return std::make_unique<Bfs>(1, 12, 8);
    if (name == "cc")
        return std::make_unique<ConnectedComponents>(1, 12, 8);
    if (name == "sssp")
        return std::make_unique<Sssp>(1, 12, 8);
    if (name == "tc")
        return std::make_unique<TriangleCount>(1, 12, 8);
    if (name == "masstree")
        return std::make_unique<KvStore>(1, 1u << 14);
    if (name == "tpcc")
        return std::make_unique<Tpcc>(1, 8, 4, 60, 500);
    if (name == "fmi")
        return std::make_unique<Fmi>(1, 1u << 15);
    if (name == "poa")
        return std::make_unique<Poa>(1, 200, 400);
    return makeWorkload(name);
}

class WorkloadCapture
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadCapture, ReachesInstructionTargetOnEveryThread)
{
    SimScale s = testScale();
    auto w = makeSmall(GetParam());
    auto t = w->capture(s);
    EXPECT_EQ(t.threads, s.threads());
    EXPECT_EQ(t.workload, GetParam());
    EXPECT_GT(t.footprintBytes, 0u);
    EXPECT_GT(t.totalRecords(), 100u);
    for (int th = 0; th < t.threads; ++th) {
        // Monotone instruction stamps within each thread.
        std::uint64_t last = 0;
        for (const auto &r : t.perThread[th]) {
            EXPECT_GE(r.instr, last);
            last = r.instr;
        }
        EXPECT_LE(last, s.phaseInstructions + 300000);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCapture,
                         ::testing::ValuesIn(workloadNames()));

TEST(WorkloadRegistry, NamesRoundTrip)
{
    auto names = workloadNames();
    EXPECT_EQ(names.size(), 8u);
    for (const auto &n : names)
        EXPECT_EQ(makeWorkload(n)->name(), n);
}

TEST(WorkloadRegistry, FirstTouchesCoverFootprint)
{
    SimScale s = testScale();
    auto t = makeSmall("bfs")->capture(s);
    // Partitioned setup should first-touch from many threads.
    std::set<ThreadId> touchers;
    for (const auto &ft : t.firstTouches)
        touchers.insert(ft.thread);
    EXPECT_GT(touchers.size(), 4u);
}

// --- Kernel correctness ---

// The reference tree: bulk-load nodes bottom up (each leaf holds
// `fanout` consecutive keys, each internal node fanout + 1 children
// and their separator keys), then descend by binary search.
struct RefTree
{
    struct Node
    {
        std::vector<std::uint64_t> keys;
        std::vector<std::uint32_t> child;
        bool leaf;
    };

    std::vector<Node> nodes;
    std::uint32_t root = 0;
    int depth = 1;

    explicit RefTree(std::uint32_t num_keys)
    {
        const int fanout = KvStore::fanout;
        std::vector<std::uint32_t> level;
        std::vector<std::uint64_t> level_min;
        for (std::uint32_t k = 0; k < num_keys; k += fanout) {
            Node n{{}, {}, true};
            for (std::uint32_t i = k;
                 i < std::min<std::uint64_t>(num_keys, k + fanout); ++i) {
                n.keys.push_back(i);
                n.child.push_back(i);
            }
            level.push_back(static_cast<std::uint32_t>(nodes.size()));
            level_min.push_back(k);
            nodes.push_back(n);
        }
        while (level.size() > 1) {
            std::vector<std::uint32_t> up;
            std::vector<std::uint64_t> up_min;
            for (std::size_t i = 0; i < level.size(); i += fanout + 1) {
                Node n{{}, {}, false};
                for (std::size_t j = i;
                     j < std::min<std::size_t>(level.size(),
                                               i + fanout + 1);
                     ++j) {
                    n.child.push_back(level[j]);
                    if (j > i)
                        n.keys.push_back(level_min[j]);
                }
                up.push_back(static_cast<std::uint32_t>(nodes.size()));
                up_min.push_back(level_min[i]);
                nodes.push_back(n);
            }
            level.swap(up);
            level_min.swap(up_min);
            ++depth;
        }
        root = level.front();
    }

    /** Node ids visited on the way to @p key, root first. */
    std::vector<std::uint32_t>
    descend(std::uint64_t key) const
    {
        std::vector<std::uint32_t> path;
        std::uint32_t cur = root;
        for (;;) {
            path.push_back(cur);
            const Node &n = nodes[cur];
            if (n.leaf)
                return path;
            auto pos = std::upper_bound(n.keys.begin(), n.keys.end(),
                                        key);
            cur = n.child[pos - n.keys.begin()];
        }
    }
};

// The computed descent visits the nodes a searched bulk-loaded tree
// does, for full and partial last leaves and internal nodes.
TEST(KvStore, ClosedFormDescentMatchesBulkLoad)
{
    for (std::uint32_t keys :
         {1u, 13u, 14u, 15u, 196u, 210u, 211u, 4096u, 1u << 19}) {
        RefTree ref(keys);
        KvStore kv(1, keys);
        ASSERT_EQ(kv.treeDepth(), ref.depth) << keys << " keys";
        int mismatches = 0;
        for (std::uint32_t key = 0; key < keys; ++key) {
            std::vector<std::uint32_t> want = ref.descend(key);
            KvStore::Path got = kv.pathTo(key);
            ASSERT_EQ(want.size(), static_cast<std::size_t>(ref.depth));
            for (int level = 0; level < ref.depth; ++level)
                mismatches += got[level] != want[ref.depth - 1 - level];
        }
        EXPECT_EQ(mismatches, 0) << keys << " keys";
    }
}

TEST(KvStore, LookupsReturnLoadedValues)
{
    KvStore kv(1, 4096);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    kv.setup(ctx, s);
    ctx.endSetup();
    std::uint64_t v = 0;
    ASSERT_TRUE(kv.lookupValue(0, &v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(kv.lookupValue(4095, &v));
    EXPECT_EQ(v, 4095u * 3 + 1);
    EXPECT_FALSE(kv.lookupValue(4096, &v));
    EXPECT_GE(kv.treeDepth(), 3);
}

TEST(KvStore, StepsUpdateValues)
{
    KvStore kv(1, 1024);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    kv.setup(ctx, s);
    ctx.endSetup();
    for (int i = 0; i < 2000; ++i)
        kv.step(i % s.threads(), ctx);
    // Some writes must have changed values from the loaded form.
    int changed = 0;
    for (std::uint64_t k = 0; k < 1024; ++k) {
        std::uint64_t v = 0;
        ASSERT_TRUE(kv.lookupValue(k, &v));
        changed += (v != k * 3 + 1);
    }
    EXPECT_GT(changed, 100);
}

TEST(Tpcc, TransactionsCommitAndBalance)
{
    Tpcc tpcc(1, 8, 4, 60, 500);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    tpcc.setup(ctx, s);
    ctx.endSetup();
    for (int i = 0; i < 4000; ++i)
        tpcc.step(i % s.threads(), ctx);
    EXPECT_GT(tpcc.committedNewOrders(), 500u);
    EXPECT_GT(tpcc.committedPayments(), 500u);
    double ytd = 0;
    for (int wh = 0; wh < 8; ++wh)
        ytd += tpcc.warehouseYtd(wh);
    EXPECT_GT(ytd, 0.0); // payments accumulated
}

TEST(Fmi, CountFindsPlantedPatterns)
{
    Fmi fmi(1, 1u << 14);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    fmi.setup(ctx, s);
    ctx.endSetup();
    // Any substring of the text must be found at least once; a
    // pattern absent from ACGT space must not match.
    EXPECT_GE(fmi.count(std::string{0, 1, 2}), 0u);
    EXPECT_GT(fmi.count(std::string{1}), 1000u); // single char
}

// The packed occurrence table counts what a byte scan counts, for
// every symbol and position: on random symbols, on the long runs of
// a periodic text's BWT, and on a length that ends mid-block.
TEST(OccTable, MatchesByteScan)
{
    auto check = [](const std::vector<std::uint8_t> &symbols) {
        OccTable occ(symbols);
        EXPECT_EQ(occ.blockCount(),
                  symbols.size() / OccTable::stride + 1);
        int mismatches = 0;
        for (int c = 0; c < 4; ++c) {
            std::uint32_t want = 0;
            for (std::uint32_t pos = 0; pos <= symbols.size(); ++pos) {
                mismatches += occ.count(c, pos) != want;
                if (pos < symbols.size())
                    want += symbols[pos] == c;
            }
        }
        EXPECT_EQ(mismatches, 0) << symbols.size() << " symbols";
    };

    Rng rng(9);
    std::vector<std::uint8_t> random(1u << 12);
    for (auto &c : random)
        c = static_cast<std::uint8_t>(rng.range32(4));
    check(random);

    std::vector<std::uint8_t> periodic(1u << 12);
    for (std::size_t i = 0; i < periodic.size(); ++i)
        periodic[i] = static_cast<std::uint8_t>(i % 3 == 2 ? 3 : i % 3);
    std::vector<std::uint32_t> sa = rotationSuffixArray(periodic);
    std::vector<std::uint8_t> bwt(periodic.size());
    for (std::size_t i = 0; i < bwt.size(); ++i)
        bwt[i] = periodic[(sa[i] + bwt.size() - 1) % bwt.size()];
    check(bwt);

    random.resize(100);
    check(random);
}

TEST(Poa, AlignmentsProgress)
{
    Poa poa(1, 100, 200);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    poa.setup(ctx, s);
    ctx.endSetup();
    for (int i = 0; i < 3000; ++i)
        for (ThreadId t = 0; t < s.threads(); ++t)
            poa.step(t, ctx);
    for (ThreadId t = 0; t < s.threads(); ++t)
        EXPECT_GT(poa.alignmentsDone(t), 0u);
}

// --- Access-structure properties the paper relies on ---

TEST(AccessStructure, PoaIsThreadPrivate)
{
    SimScale s = testScale();
    auto t = makeSmall("poa")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Every page touched by exactly one socket: POA is the
    // NUMA-insensitive control (§V-A).
    EXPECT_GT(p.pageFraction(1), 0.99);
}

TEST(AccessStructure, BfsSharesWidely)
{
    SimScale s = testScale();
    s.phaseInstructions = 150000; // enough sweeps to mix sharers
    auto t = makeSmall("bfs")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Accesses concentrate on shared pages (Fig 2's vagabond
    // concentration): most accesses leave the private bucket.
    EXPECT_GT(p.accessesAbove(1), 0.5);
    EXPECT_GT(p.accessFraction(s.sockets), 0.05);
}

TEST(AccessStructure, TcIsMostlyReadOnlyShared)
{
    SimScale s = testScale();
    auto t = makeSmall("tc")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Fig 13: TC's widely shared pages are read-only (the CSR).
    EXPECT_LT(p.readWriteAccessFraction(s.sockets), 0.2);
    EXPECT_GT(p.accessesAbove(1), 0.5);
}

TEST(AccessStructure, TpccIsMostlyPartitioned)
{
    SimScale s = testScale();
    auto t = makeSmall("tpcc")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Home-warehouse affinity keeps most pages narrow; the item
    // table and remote touches create a shared tail.
    EXPECT_GT(p.pageFraction(1), 0.3);
    EXPECT_GT(p.accessesAbove(1), 0.05);
}

} // anonymous namespace
} // namespace workloads
} // namespace starnuma
