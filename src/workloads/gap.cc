#include "workloads/gap.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace starnuma
{
namespace workloads
{

// --- GapBase ---

GapBase::GapBase(std::uint64_t rng_seed, int scale, int degree)
    : graphScale(scale), graphDegree(degree), seed(rng_seed),
      kernelRng(rng_seed ^ 0x9e3779b97f4a7c15ULL)
{
}

void
GapBase::setup(trace::CaptureContext &ctx, const SimScale &scale)
{
    threads = scale.threads();
    waiting.assign(threads, false);
    arrived = 0;

    Rng gen(seed);
    graph = CsrGraph::kronecker(graphScale, graphDegree, gen);

    offsetsBase = ctx.alloc((graph.vertices + 1) *
                            sizeof(graph.offsets[0]));
    neighborsBase = ctx.alloc(graph.neighbors.size() *
                              sizeof(graph.neighbors[0]));
    counters.allocate(ctx, 16);

    // Parallel, partitioned construction: thread t writes its slice
    // of every shared array, seeding first-touch placement the way
    // a parallel graph build does.
    for (ThreadId t = 0; t < threads; ++t) {
        auto [lo, hi] = ownedRange(t);
        for (std::uint32_t v = lo; v < hi; ++v) {
            ctx.store(t, offsetAddr(v));
            for (std::uint64_t e = graph.offsets[v];
                 e < graph.offsets[v + 1]; ++e)
                ctx.store(t, neighborAddr(e));
        }
    }
    ctx.store(threads - 1, offsetAddr(graph.vertices));
    // The synchronization page lands on a middle socket (as an
    // arbitrary runtime allocation would), keeping socket 0 — the
    // detailed socket — representative.
    ThreadId alloc_thread = threads / 2;
    counters[cursorSlot] = 0;
    ctx.store(alloc_thread, counters.addrOf(cursorSlot));
    counters[barrierSlot] = 0;
    ctx.store(alloc_thread, counters.addrOf(barrierSlot));

    setupKernel(ctx);
}

std::pair<std::uint32_t, std::uint32_t>
GapBase::ownedRange(ThreadId t) const
{
    std::uint64_t n = graph.vertices;
    auto lo = static_cast<std::uint32_t>(n * t / threads);
    auto hi = static_cast<std::uint32_t>(n * (t + 1) / threads);
    return {lo, hi};
}

std::pair<std::uint64_t, std::uint64_t>
GapBase::edgeRange(trace::CaptureContext &ctx, ThreadId t,
                   std::uint32_t v)
{
    ctx.load(t, offsetAddr(v));
    ctx.load(t, offsetAddr(v + 1));
    return {graph.offsets[v], graph.offsets[v + 1]};
}

std::uint32_t
GapBase::neighborAt(trace::CaptureContext &ctx, ThreadId t,
                    std::uint64_t e)
{
    ctx.load(t, neighborAddr(e));
    return graph.neighbors[e];
}

bool
GapBase::barrierWait(ThreadId t, trace::CaptureContext &ctx)
{
    if (!waiting[t])
        return false;
    // Spin on the barrier word with PAUSE-style backoff: shared
    // traffic like a real sense-reversing barrier, but not a
    // per-cycle hammer on the barrier line.
    ctx.load(t, counters.addrOf(barrierSlot));
    ctx.instr(t, 64);
    return true;
}

// --- BFS ---

void
Bfs::setupKernel(trace::CaptureContext &ctx)
{
    parent.allocate(ctx, graph.vertices);
    frontierA.allocate(ctx, graph.vertices);
    frontierB.allocate(ctx, graph.vertices);
    for (ThreadId t = 0; t < threads; ++t) {
        auto [lo, hi] = ownedRange(t);
        for (std::uint32_t v = lo; v < hi; ++v) {
            parent[v] = 0;
            ctx.store(t, parent.addrOf(v));
        }
    }
    epoch = 0;
    startSearch();
}

void
Bfs::startSearch()
{
    ++epoch;
    std::uint32_t source = kernelRng.range32(graph.vertices);
    cur.assign(1, source);
    next.clear();
    cursor = 0;
    parent[source] =
        (static_cast<std::uint64_t>(epoch) << 32) | source;
    curIsA = true;
}

void
Bfs::advanceLevel()
{
    cur.swap(next);
    next.clear();
    cursor = 0;
    curIsA = !curIsA;
    if (cur.empty())
        startSearch();
}

void
Bfs::step(ThreadId t, trace::CaptureContext &ctx)
{
    if (barrierWait(t, ctx))
        return;

    // Grab a chunk of the shared frontier (work-stealing cursor).
    ctx.load(t, counters.addrOf(cursorSlot));
    ctx.instr(t, 2);
    if (cursor >= cur.size()) {
        barrierArrive(t, ctx, [this] { advanceLevel(); });
        return;
    }
    std::size_t begin = cursor;
    std::size_t end = std::min(cursor + chunkSize, cur.size());
    cursor = end;
    ctx.store(t, counters.addrOf(cursorSlot));

    trace::TracedArray<std::uint32_t> &front =
        curIsA ? frontierA : frontierB;
    trace::TracedArray<std::uint32_t> &out =
        curIsA ? frontierB : frontierA;

    for (std::size_t i = begin; i < end; ++i) {
        std::uint32_t u = cur[i];
        ctx.load(t, front.addrOf(i));
        auto [e0, e1] = edgeRange(ctx, t, u);
        ctx.instr(t, 4);
        for (std::uint64_t e = e0; e < e1; ++e) {
            std::uint32_t v = neighborAt(ctx, t, e);
            ctx.instr(t, 2);
            std::uint64_t pv = parent.read(ctx, t, v);
            if ((pv >> 32) != epoch) {
                parent.write(
                    ctx, t, v,
                    (static_cast<std::uint64_t>(epoch) << 32) | u);
                next.push_back(v);
                ctx.store(t, out.addrOf(next.size() - 1));
                ctx.instr(t, 2);
            }
        }
    }
}

std::uint64_t
Bfs::parentEntry(std::uint32_t v) const
{
    return parent[v];
}

// --- Connected Components ---

void
ConnectedComponents::setupKernel(trace::CaptureContext &ctx)
{
    comp.allocate(ctx, graph.vertices);
    for (ThreadId t = 0; t < threads; ++t) {
        auto [lo, hi] = ownedRange(t);
        for (std::uint32_t v = lo; v < hi; ++v) {
            comp[v] = 0;
            ctx.store(t, comp.addrOf(v));
        }
    }
    sweepCursor = 0;
    epoch = 1;
    sweepChanges = 0;
}

void
ConnectedComponents::step(ThreadId t, trace::CaptureContext &ctx)
{
    if (barrierWait(t, ctx))
        return;

    // GAP-style dynamic scheduling: grab the next vertex chunk from
    // the shared cursor, so no thread has lasting page affinity.
    ctx.load(t, counters.addrOf(cursorSlot));
    ctx.instr(t, 2);
    if (sweepCursor >= graph.vertices) {
        barrierArrive(t, ctx, [this] {
            if (sweepChanges == 0)
                ++epoch; // converged: implicit reinitialization
            sweepChanges = 0;
            sweepCursor = 0;
        });
        return;
    }
    std::uint32_t begin =
        static_cast<std::uint32_t>(sweepCursor);
    std::uint32_t end = std::min<std::uint32_t>(
        begin + chunkSize, graph.vertices);
    sweepCursor = end;
    ctx.store(t, counters.addrOf(cursorSlot));

    for (std::uint32_t u = begin; u < end; ++u) {
        std::uint64_t cu = comp.read(ctx, t, u);
        std::uint32_t label =
            (cu >> 32) == epoch ? static_cast<std::uint32_t>(cu) : u;
        std::uint32_t best = label;
        auto [e0, e1] = edgeRange(ctx, t, u);
        ctx.instr(t, 3);
        for (std::uint64_t e = e0; e < e1; ++e) {
            std::uint32_t v = neighborAt(ctx, t, e);
            std::uint64_t cv = comp.read(ctx, t, v);
            std::uint32_t lv = (cv >> 32) == epoch
                                   ? static_cast<std::uint32_t>(cv)
                                   : v;
            ctx.instr(t, 3);
            best = std::min(best, lv);
        }
        if (best != label || (cu >> 32) != epoch) {
            comp.write(ctx, t, u,
                       (static_cast<std::uint64_t>(epoch) << 32) |
                           best);
            if (best != label)
                ++sweepChanges;
            ctx.instr(t, 1);
        }
    }
}

std::uint32_t
ConnectedComponents::labelOf(std::uint32_t v) const
{
    std::uint64_t c = comp[v];
    return (c >> 32) == epoch ? static_cast<std::uint32_t>(c) : v;
}

// --- SSSP ---

void
Sssp::setupKernel(trace::CaptureContext &ctx)
{
    dist.allocate(ctx, graph.vertices);
    weights.allocate(ctx, graph.neighbors.size());
    Rng wrng(seed ^ 0x1234567);
    for (ThreadId t = 0; t < threads; ++t) {
        auto [lo, hi] = ownedRange(t);
        for (std::uint32_t v = lo; v < hi; ++v) {
            dist[v] = 0;
            ctx.store(t, dist.addrOf(v));
            for (std::uint64_t e = graph.offsets[v];
                 e < graph.offsets[v + 1]; ++e) {
                weights[e] = 1 + wrng.range32(255);
                ctx.store(t, weights.addrOf(e));
            }
        }
    }
    sweepCursor = 0;
    epoch = 1;
    source = kernelRng.range32(graph.vertices);
    dist[source] = (static_cast<std::uint64_t>(epoch) << 32) | 0;
    sweepChanges = 0;
}

std::uint64_t
Sssp::distOf(std::uint64_t stamped) const
{
    constexpr std::uint64_t inf = 0xffffffff;
    return (stamped >> 32) == epoch ? (stamped & 0xffffffff) : inf;
}

void
Sssp::step(ThreadId t, trace::CaptureContext &ctx)
{
    if (barrierWait(t, ctx))
        return;

    // Dynamic chunked scheduling, as in GAP's OpenMP kernels.
    ctx.load(t, counters.addrOf(cursorSlot));
    ctx.instr(t, 2);
    if (sweepCursor >= graph.vertices) {
        barrierArrive(t, ctx, [this] {
            if (sweepChanges == 0) {
                // Converged: restart from a fresh source.
                ++epoch;
                source = kernelRng.range32(graph.vertices);
                dist[source] =
                    (static_cast<std::uint64_t>(epoch) << 32) | 0;
            }
            sweepChanges = 0;
            sweepCursor = 0;
        });
        return;
    }
    std::uint32_t begin = static_cast<std::uint32_t>(sweepCursor);
    std::uint32_t end = std::min<std::uint32_t>(
        begin + chunkSize, graph.vertices);
    sweepCursor = end;
    ctx.store(t, counters.addrOf(cursorSlot));

    constexpr std::uint64_t inf = 0xffffffff;
    for (std::uint32_t u = begin; u < end; ++u) {
        std::uint64_t du = distOf(dist.read(ctx, t, u));
        ctx.instr(t, 2);
        if (du == inf)
            continue;
        auto [e0, e1] = edgeRange(ctx, t, u);
        for (std::uint64_t e = e0; e < e1; ++e) {
            std::uint32_t v = neighborAt(ctx, t, e);
            std::uint32_t w = weights.read(ctx, t, e);
            std::uint64_t nd = du + w;
            std::uint64_t dv = distOf(dist.read(ctx, t, v));
            ctx.instr(t, 3);
            if (nd < dv) {
                dist.write(
                    ctx, t, v,
                    (static_cast<std::uint64_t>(epoch) << 32) | nd);
                ++sweepChanges;
            }
        }
    }
}

std::uint64_t
Sssp::distanceOf(std::uint32_t v) const
{
    std::uint64_t d = dist[v];
    return (d >> 32) == epoch ? (d & 0xffffffff)
                              : ~std::uint64_t(0);
}

std::uint32_t
Sssp::weightOf(std::uint64_t edge) const
{
    return weights[edge];
}

// --- Triangle Counting ---

std::uint64_t
TriangleCount::trianglesCounted() const
{
    std::uint64_t total = 0;
    for (auto t : triangles)
        total += t;
    return total;
}

void
TriangleCount::setupKernel(trace::CaptureContext &)
{
    // Dynamic chunked work distribution over the whole vertex set
    // (as in GAP's OpenMP dynamic schedule): every thread's
    // intersections range over the entire CSR, so the graph is
    // genuinely shared by all sockets (Fig 13).
    threadCursor.assign(threads, 0);
    cont.assign(threads, Continuation{});
    triangles.assign(threads, 0);
    sharedCursor = 0;
}

void
TriangleCount::step(ThreadId t, trace::CaptureContext &ctx)
{
    // Bound per-step work so hub vertices do not monopolize the
    // cooperative scheduler; the intersection resumes next step.
    constexpr int budget = 512;
    int spent = 0;
    Continuation &c = cont[t];

    if (!c.active) {
        // Grab the next vertex from the shared cursor (a traced
        // read-modify-write of the shared counter).
        ctx.load(t, counters.addrOf(cursorSlot));
        c.u = static_cast<std::uint32_t>(sharedCursor++ %
                                         graph.vertices);
        ctx.store(t, counters.addrOf(cursorSlot));
        c.e = graph.offsets[c.u];
        c.i = 0;
        c.j = 0;
        c.active = true;
        ctx.instr(t, 4);
    }

    std::uint64_t u1 = graph.offsets[c.u + 1];
    while (spent < budget) {
        if (c.e >= u1) {
            c.active = false;
            ctx.instr(t, 2);
            return;
        }
        if (c.i == 0 && c.j == 0) {
            std::uint32_t v = neighborAt(ctx, t, c.e);
            ctx.instr(t, 2);
            spent += 2;
            if (v <= c.u) {
                ++c.e;
                continue;
            }
            c.i = c.e + 1;
            c.j = graph.offsets[v];
        }
        std::uint32_t v = graph.neighbors[c.e];
        std::uint64_t v1 = graph.offsets[v + 1];
        // Sorted two-pointer intersection of adj(u) and adj(v).
        while (c.i < u1 && c.j < v1 && spent < budget) {
            std::uint32_t a = neighborAt(ctx, t, c.i);
            std::uint32_t b = neighborAt(ctx, t, c.j);
            ctx.instr(t, 2);
            spent += 2;
            if (a == b) {
                ++triangles[t];
                ++c.i;
                ++c.j;
            } else if (a < b) {
                ++c.i;
            } else {
                ++c.j;
            }
        }
        if (c.i >= u1 || c.j >= v1) {
            ++c.e;
            c.i = 0;
            c.j = 0;
        }
    }
}

} // namespace workloads
} // namespace starnuma
