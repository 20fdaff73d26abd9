/**
 * @file
 * The four GAP graph-analytics kernels (§IV-E): breadth-first
 * search, connected components (label propagation), single-source
 * shortest paths (Bellman-Ford style relaxation), and triangle
 * counting (sorted adjacency intersection). All four run on a
 * shared Kronecker CSR graph; per-kernel arrays (parent, component,
 * distance) are shared read-write — the source of the vagabond
 * pages Fig 2 measures. Epoch-stamped values make restarts free of
 * global reinitialization sweeps.
 */

#ifndef STARNUMA_WORKLOADS_GAP_HH
#define STARNUMA_WORKLOADS_GAP_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace workloads
{

/** Shared plumbing of the GAP kernels: graph + barrier. */
class GapBase : public Workload
{
  public:
    explicit GapBase(std::uint64_t rng_seed, int scale = 17,
                     int degree = 16);

    void setup(trace::CaptureContext &ctx,
               const SimScale &scale) override;

  protected:
    /** Vertex range statically owned by thread @p t. */
    std::pair<std::uint32_t, std::uint32_t>
    ownedRange(ThreadId t) const;

    /** Traced read of graph.offsets[v] and graph.offsets[v+1]. */
    std::pair<std::uint64_t, std::uint64_t>
    edgeRange(trace::CaptureContext &ctx, ThreadId t,
              std::uint32_t v);

    /** Traced read of graph.neighbors[e]. */
    std::uint32_t neighborAt(trace::CaptureContext &ctx, ThreadId t,
                             std::uint64_t e);

    /** Simulated address of graph.offsets[v]. */
    Addr
    offsetAddr(std::uint64_t v) const
    {
        return offsetsBase + v * sizeof(graph.offsets[0]);
    }

    /** Simulated address of graph.neighbors[e]. */
    Addr
    neighborAddr(std::uint64_t e) const
    {
        return neighborsBase + e * sizeof(graph.neighbors[0]);
    }

    // --- Sense-reversing barrier with traced spinning ---

    /** True (and burns spin instructions) while @p t must wait. */
    bool barrierWait(ThreadId t, trace::CaptureContext &ctx);

    /**
     * Thread @p t arrives at the barrier. When it is the last one,
     * @p on_release runs (advance level/sweep) and all threads are
     * released.
     */
    template <typename Fn>
    void
    barrierArrive(ThreadId t, trace::CaptureContext &ctx,
                  Fn &&on_release)
    {
        ++arrived;
        waiting[t] = true;
        ctx.store(t, counters.addrOf(barrierSlot));
        ctx.instr(t, 4);
        if (arrived == threads) {
            on_release();
            arrived = 0;
            std::fill(waiting.begin(), waiting.end(), false);
        }
    }

    /** Called once per kernel from setup() for kernel arrays. */
    virtual void setupKernel(trace::CaptureContext &ctx) = 0;

    static constexpr int chunkSize = 64;
    static constexpr std::size_t cursorSlot = 0; ///< x8 stride
    static constexpr std::size_t barrierSlot = 8;

    int graphScale;
    int graphDegree;
    std::uint64_t seed;
    int threads = 0;

    // The host values live in graph; the simulated CSR arrays are
    // address-only regions (DESIGN.md §18).
    CsrGraph graph;
    Addr offsetsBase = 0;   ///< u64 per vertex, plus one
    Addr neighborsBase = 0; ///< u32 per directed edge
    trace::TracedArray<std::uint64_t> counters;

    std::vector<bool> waiting;
    int arrived = 0;
    Rng kernelRng;
};

/** Breadth-First Search with shared work-stealing frontier. */
class Bfs : public GapBase
{
  public:
    explicit Bfs(std::uint64_t rng_seed, int scale = 17,
                 int degree = 16)
        : GapBase(rng_seed, scale, degree)
    {
    }

    std::string name() const override { return "bfs"; }
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    // Verification accessors (tests check BFS-tree validity).
    const CsrGraph &csr() const { return graph; }
    std::uint32_t currentEpoch() const { return epoch; }
    std::uint64_t parentEntry(std::uint32_t v) const;

  protected:
    void setupKernel(trace::CaptureContext &ctx) override;

  private:
    void startSearch();
    void advanceLevel();

    trace::TracedArray<std::uint64_t> parent; ///< epoch<<32 | parent
    trace::TracedArray<std::uint32_t> frontierA;
    trace::TracedArray<std::uint32_t> frontierB;
    std::vector<std::uint32_t> cur, next;
    std::size_t cursor = 0;
    bool curIsA = true;
    std::uint32_t epoch = 0;
};

/** Connected Components via min-label propagation. */
class ConnectedComponents : public GapBase
{
  public:
    explicit ConnectedComponents(std::uint64_t rng_seed,
                                 int scale = 17, int degree = 16)
        : GapBase(rng_seed, scale, degree)
    {
    }

    std::string name() const override { return "cc"; }
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    // Verification accessors (labels must stay within components).
    const CsrGraph &csr() const { return graph; }
    std::uint32_t currentEpoch() const { return epoch; }
    std::uint32_t labelOf(std::uint32_t v) const;

  protected:
    void setupKernel(trace::CaptureContext &ctx) override;

  private:
    trace::TracedArray<std::uint64_t> comp; ///< epoch<<32 | label
    std::uint64_t sweepCursor = 0;
    std::uint64_t sweepChanges = 0;
    std::uint32_t epoch = 0;
};

/** Single-Source Shortest Paths (push-style relaxation). */
class Sssp : public GapBase
{
  public:
    explicit Sssp(std::uint64_t rng_seed, int scale = 17,
                  int degree = 16)
        : GapBase(rng_seed, scale, degree)
    {
    }

    std::string name() const override { return "sssp"; }
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    // Verification accessors (relaxation certificate).
    const CsrGraph &csr() const { return graph; }
    std::uint32_t sourceVertex() const { return source; }
    std::uint64_t distanceOf(std::uint32_t v) const; ///< or ~0
    std::uint32_t weightOf(std::uint64_t edge) const;

  protected:
    void setupKernel(trace::CaptureContext &ctx) override;

  private:
    std::uint64_t distOf(std::uint64_t stamped) const;

    trace::TracedArray<std::uint64_t> dist; ///< epoch<<32 | dist
    trace::TracedArray<std::uint32_t> weights;
    std::uint64_t sweepCursor = 0;
    std::uint64_t sweepChanges = 0;
    std::uint32_t epoch = 0;
    std::uint32_t source = 0;
};

/** Triangle Counting via sorted-list intersection (no barrier). */
class TriangleCount : public GapBase
{
  public:
    explicit TriangleCount(std::uint64_t rng_seed, int scale = 17,
                           int degree = 16)
        : GapBase(rng_seed, scale, degree)
    {
    }

    std::string name() const override { return "tc"; }
    void step(ThreadId t, trace::CaptureContext &ctx) override;

    /** Triangles counted so far across threads (monotone). */
    std::uint64_t trianglesCounted() const;

  protected:
    void setupKernel(trace::CaptureContext &ctx) override;

  private:
    /** Resumable intersection position (hub vertices span steps). */
    struct Continuation
    {
        std::uint32_t u = 0;
        std::uint64_t e = 0;  ///< current edge of u
        std::uint64_t i = 0;  ///< cursor into adj(u)
        std::uint64_t j = 0;  ///< cursor into adj(v)
        bool active = false;  ///< an intersection is in flight
    };

    std::vector<std::uint32_t> threadCursor;
    std::vector<Continuation> cont;
    std::vector<std::uint64_t> triangles;
    std::uint64_t sharedCursor = 0;
};

} // namespace workloads
} // namespace starnuma

#endif // STARNUMA_WORKLOADS_GAP_HH
