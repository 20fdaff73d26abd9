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

    // Symmetrize into CSR with sorted adjacency.
    std::vector<std::uint64_t> degree_count(n + 1, 0);
    for (auto [u, v] : edge_list) {
        ++degree_count[u + 1];
        ++degree_count[v + 1];
    }
    CsrGraph g;
    g.vertices = n;
    g.offsets.assign(n + 1, 0);
    for (std::uint32_t v = 0; v < n; ++v)
        g.offsets[v + 1] = g.offsets[v] + degree_count[v + 1];
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

} // namespace workloads
} // namespace starnuma
