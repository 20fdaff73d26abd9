#include "workloads/graph.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace starnuma
{
namespace workloads
{

CsrGraph
CsrGraph::kronecker(int scale, int avg_degree, Rng &rng)
{
    sn_assert(scale > 0 && scale < 31, "bad graph scale %d", scale);
    std::uint32_t n = 1u << scale;
    std::uint64_t edges =
        static_cast<std::uint64_t>(n) * avg_degree / 2;

    // R-MAT edge sampling: descend the adjacency-matrix quadrants.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
    edge_list.reserve(edges);
    while (edge_list.size() < edges) {
        std::uint32_t u = 0, v = 0;
        for (int bit = 0; bit < scale; ++bit) {
            // Quadrants a, b, c, d with probability .57/.19/.19/.05,
            // chosen without branches.
            double r = rng.uniform();
            int quadrant = (r >= 0.57) + (r >= 0.76) + (r >= 0.95);
            u = (u << 1) | (quadrant >> 1);
            v = (v << 1) | (quadrant & 1);
        }
        if (u != v)
            edge_list.emplace_back(u, v);
    }

    // Symmetrize into CSR, then sort every adjacency list with a
    // second counting scatter: appending x to each neighbour's list
    // for x in ascending order leaves every list ascending, and the
    // graph is symmetric, so y's list still holds x once per edge.
    CsrGraph g;
    g.vertices = n;
    g.offsets.assign(n + 1, 0);
    for (auto [u, v] : edge_list) {
        ++g.offsets[u + 1];
        ++g.offsets[v + 1];
    }
    for (std::uint32_t v = 0; v < n; ++v)
        g.offsets[v + 1] += g.offsets[v];

    std::vector<std::uint32_t> unsorted(g.offsets[n]);
    std::vector<std::uint64_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (auto [u, v] : edge_list) {
        unsorted[cursor[u]++] = v;
        unsorted[cursor[v]++] = u;
    }
    edge_list = {};
    std::copy(g.offsets.begin(), g.offsets.end() - 1, cursor.begin());
    g.neighbors.resize(unsorted.size());
    for (std::uint32_t x = 0; x < n; ++x)
        for (std::uint64_t e = g.offsets[x]; e < g.offsets[x + 1]; ++e)
            g.neighbors[cursor[unsorted[e]]++] = x;
    return g;
}

} // namespace workloads
} // namespace starnuma
