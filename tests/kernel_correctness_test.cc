/**
 * @file
 * Algorithm-correctness certificates for the workload kernels.
 * The capture can stop a kernel mid-phase, so each test checks an
 * invariant that holds at *any* point of a correct execution:
 * BFS parent edges exist in the graph; CC labels stay within their
 * vertex's connected component (vs a union-find ground truth);
 * SSSP distances always have a valid relaxation certificate; FMI
 * counts equal a naive text scan and its suffix array equals a
 * naive rotation sort; TC's count is monotone and deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "workloads/gap.hh"
#include "workloads/genomics.hh"

namespace starnuma
{
namespace workloads
{
namespace
{

SimScale
kernelScale()
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 60000;
    return s;
}

/** Plain union-find for component ground truth. */
struct UnionFind
{
    explicit UnionFind(std::size_t n) : parent(n)
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    std::uint32_t
    find(std::uint32_t v)
    {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    }

    void
    unite(std::uint32_t a, std::uint32_t b)
    {
        parent[find(a)] = find(b);
    }

    std::vector<std::uint32_t> parent;
};

bool
hasEdge(const CsrGraph &g, std::uint32_t u, std::uint32_t v)
{
    return std::binary_search(g.neighbors.begin() + g.offsets[u],
                              g.neighbors.begin() + g.offsets[u + 1],
                              v);
}

TEST(KernelCorrectness, BfsParentEdgesExist)
{
    Bfs bfs(5, /*scale=*/11, /*degree=*/8);
    auto trace = bfs.capture(kernelScale());
    (void)trace;
    const CsrGraph &g = bfs.csr();
    std::uint32_t epoch = bfs.currentEpoch();
    int visited = 0;
    for (std::uint32_t v = 0; v < g.vertices; ++v) {
        std::uint64_t e = bfs.parentEntry(v);
        if ((e >> 32) != epoch)
            continue; // not reached in the current search
        ++visited;
        auto p = static_cast<std::uint32_t>(e);
        // The source is its own parent; every other tree edge must
        // be a real graph edge.
        if (p != v) {
            EXPECT_TRUE(hasEdge(g, p, v)) << p << "->" << v;
        }
    }
    EXPECT_GT(visited, 1);
}

TEST(KernelCorrectness, CcLabelsStayWithinComponents)
{
    ConnectedComponents cc(5, 11, 8);
    auto trace = cc.capture(kernelScale());
    (void)trace;
    const CsrGraph &g = cc.csr();
    UnionFind uf(g.vertices);
    for (std::uint32_t v = 0; v < g.vertices; ++v)
        for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1];
             ++e)
            uf.unite(v, g.neighbors[e]);
    // A propagated label is always some vertex of v's component,
    // and never exceeds v's own id (labels only shrink).
    for (std::uint32_t v = 0; v < g.vertices; ++v) {
        std::uint32_t label = cc.labelOf(v);
        EXPECT_LE(label, v);
        EXPECT_EQ(uf.find(label), uf.find(v)) << "vertex " << v;
    }
}

TEST(KernelCorrectness, SsspRelaxationCertificate)
{
    Sssp sssp(5, 11, 8);
    auto trace = sssp.capture(kernelScale());
    (void)trace;
    const CsrGraph &g = sssp.csr();
    std::uint32_t source = sssp.sourceVertex();
    EXPECT_EQ(sssp.distanceOf(source), 0u);

    // Dijkstra ground truth. Every label the kernel ever writes is
    // the length of a real path from the source (relaxations only
    // chain real edges), so at any point of execution:
    //   true shortest distance <= label.
    std::vector<std::uint64_t> truth(g.vertices,
                                     ~std::uint64_t(0));
    truth[source] = 0;
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.emplace(0, source);
    while (!pq.empty()) {
        auto [d, u] = pq.top();
        pq.pop();
        if (d > truth[u])
            continue;
        for (std::uint64_t e = g.offsets[u]; e < g.offsets[u + 1];
             ++e) {
            std::uint32_t v = g.neighbors[e];
            std::uint64_t nd = d + sssp.weightOf(e);
            if (nd < truth[v]) {
                truth[v] = nd;
                pq.emplace(nd, v);
            }
        }
    }

    int reached = 0;
    for (std::uint32_t v = 0; v < g.vertices; ++v) {
        std::uint64_t dv = sssp.distanceOf(v);
        if (dv == ~std::uint64_t(0))
            continue;
        ++reached;
        EXPECT_GE(dv, truth[v]) << "vertex " << v;
        EXPECT_NE(truth[v], ~std::uint64_t(0)) << "vertex " << v;
    }
    EXPECT_GT(reached, 1);
}

TEST(KernelCorrectness, TcCountMonotoneAndDeterministic)
{
    TriangleCount a(5, 10, 8), b(5, 10, 8);
    SimScale s = kernelScale();
    auto ta = a.capture(s);
    auto tb = b.capture(s);
    (void)ta;
    (void)tb;
    EXPECT_GT(a.trianglesCounted(), 0u);
    EXPECT_EQ(a.trianglesCounted(), b.trianglesCounted());
}

TEST(KernelCorrectness, FmiCountsMatchNaiveScan)
{
    Fmi fmi(5, 1u << 12);
    SimScale s = kernelScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    fmi.setup(ctx, s);
    ctx.endSetup();

    // Rebuild the text the same way the index did.
    Rng gen(5);
    std::vector<std::uint8_t> text(1u << 12);
    for (auto &c : text)
        c = static_cast<std::uint8_t>(gen.range32(4));

    Rng pat(123);
    for (int q = 0; q < 30; ++q) {
        int len = 1 + static_cast<int>(pat.range32(6));
        std::string pattern;
        for (int i = 0; i < len; ++i)
            pattern.push_back(
                static_cast<char>(pat.range32(4)));
        // Naive count over cyclic rotations (BWT convention).
        std::uint64_t naive = 0;
        for (std::size_t i = 0; i < text.size(); ++i) {
            bool match = true;
            for (int j = 0; j < len && match; ++j)
                match = text[(i + j) & (text.size() - 1)] ==
                        static_cast<std::uint8_t>(pattern[j]);
            naive += match;
        }
        EXPECT_EQ(fmi.count(pattern), naive)
            << "pattern #" << q << " len " << len;
    }
}

// The reference: sort every start position by comparing whole
// cyclic rotations, ties by position.
std::vector<std::uint32_t>
naiveRotationSort(const std::vector<std::uint8_t> &text)
{
    std::vector<std::uint32_t> sa(text.size());
    std::iota(sa.begin(), sa.end(), 0);
    auto n = static_cast<std::uint32_t>(text.size());
    std::sort(sa.begin(), sa.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  for (std::uint32_t i = 0; i < n; ++i) {
                      std::uint8_t ca = text[(a + i) % n];
                      std::uint8_t cb = text[(b + i) % n];
                      if (ca != cb)
                          return ca < cb;
                  }
                  return a < b;
              });
    return sa;
}

TEST(RotationSuffixArray, MatchesNaiveSortOnRandomText)
{
    Rng gen(7);
    std::vector<std::uint8_t> text(1u << 13);
    for (auto &c : text)
        c = static_cast<std::uint8_t>(gen.range32(4));
    EXPECT_EQ(rotationSuffixArray(text), naiveRotationSort(text));
}

TEST(RotationSuffixArray, MatchesNaiveSortOnPeriodicText)
{
    // Period 48 with a few mutations: most rotations agree far past
    // the packed prefix, so the order comes from the tie-break
    // sort; the unmutated stretch repeats whole rotations' worth of
    // prefix, and equal rotations fall back to position order.
    Rng gen(11);
    std::vector<std::uint8_t> period(48);
    for (auto &c : period)
        c = static_cast<std::uint8_t>(gen.range32(4));
    std::vector<std::uint8_t> text(1u << 11);
    for (std::size_t i = 0; i < text.size(); ++i)
        text[i] = period[i % period.size()];
    for (int m = 0; m < 3; ++m)
        text[gen.range32(static_cast<std::uint32_t>(text.size()))] ^= 1;
    EXPECT_EQ(rotationSuffixArray(text), naiveRotationSort(text));

    // A purely periodic text: rotations a period apart are equal.
    std::vector<std::uint8_t> pure(1u << 10);
    for (std::size_t i = 0; i < pure.size(); ++i)
        pure[i] = period[i % 16];
    EXPECT_EQ(rotationSuffixArray(pure), naiveRotationSort(pure));
}

TEST(RotationSuffixArray, MatchesNaiveSortOnShortText)
{
    // Shorter than the packed prefix: the key wraps around the
    // text, possibly several times.
    Rng gen(3);
    for (std::uint32_t n : {1u, 2u, 4u, 8u, 16u}) {
        for (int trial = 0; trial < 20; ++trial) {
            // Odd trials use two symbols, so rotations tie often.
            std::uint32_t symbols = trial % 2 ? 2 : 4;
            std::vector<std::uint8_t> text(n);
            for (auto &c : text)
                c = static_cast<std::uint8_t>(gen.range32(symbols));
            EXPECT_EQ(rotationSuffixArray(text),
                      naiveRotationSort(text))
                << "n=" << n << " trial " << trial;
        }
    }
}

TEST(RotationSuffixArray, RadixSortMatchesStdSort)
{
    // Random keys over all 64 bits, keys with constant digits
    // (skipped passes), duplicates, and the trivial lengths.
    Rng gen(5);
    auto check = [](std::vector<std::uint64_t> keys) {
        std::vector<std::uint64_t> want = keys;
        std::sort(want.begin(), want.end());
        radixSort(keys);
        EXPECT_EQ(keys, want);
    };
    for (std::size_t n : {0u, 1u, 2u, 3u, 100u, 4096u, 100000u}) {
        std::vector<std::uint64_t> keys(n);
        for (auto &k : keys)
            k = (std::uint64_t(gen.next32()) << 32) | gen.next32();
        check(keys);
        // Only bits 20..39 vary: passes 0, 4 and 5 are skipped.
        for (auto &k : keys)
            k = (k & 0xfffff00000ULL) | 0xab00000000000005ULL;
        check(keys);
        // A dozen distinct values, each repeated.
        for (auto &k : keys)
            k = gen.range32(12) * 0x0123456789abcdefULL;
        check(keys);
    }
}

} // anonymous namespace
} // namespace workloads
} // namespace starnuma
