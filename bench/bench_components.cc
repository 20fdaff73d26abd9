/**
 * @file
 * Microbenchmarks of the simulator's building blocks (classic
 * google-benchmark style): event queue throughput, cache, capture
 * filter and TLB lookup rates, tracker updates, directory
 * transactions, link and DRAM fluid-queue operations, and Kronecker
 * graph generation.
 * Also prints the Table I/II system-parameter summary.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "core/region_tracker.hh"
#include "core/tlb_annex.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/table.hh"
#include "topology/topology.hh"
#include "trace/capture.hh"
#include "workloads/graph.hh"

using namespace starnuma;

namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    // Steady state of a timing-simulation phase: ~340 events
    // pending, most due within a few hundred cycles, a few (pacer,
    // migration streams) a wheel span or more ahead.
    EventQueue<std::uint64_t> q;
    Rng rng(1);
    std::uint64_t n = 0;
    auto delay = [&rng] {
        return Cycles(rng.chance(0.01) ? 20000 : 1 + rng.range32(600));
    };
    for (int i = 0; i < 340; ++i)
        q.schedule(delay(), 0);
    auto handle = [&](std::uint64_t v) { n += v; };
    for (auto _ : state) {
        q.scheduleAfter(delay(), 1);
        q.step(handle);
    }
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache({2 * 1024 * 1024, 16});
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.next32() & 0xffffff, false).hit);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CaptureFilterAccess(benchmark::State &state)
{
    // Step A's per-thread filter at its default geometry, on a
    // 16 MB random stream (mostly misses, like a graph kernel's).
    trace::CaptureFilter filter({256 * 1024, 8});
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            filter.access(rng.next32() & 0xffffff));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaptureFilterAccess);

void
BM_TlbAnnexAccess(benchmark::State &state)
{
    core::RegionTracker tracker(16, 16, 16 * 1024);
    core::TlbAnnex tlb({64, 4}, tracker, 0);
    Rng rng(2);
    for (auto _ : state)
        tlb.recordAccess(rng.next32() & 0xffffff);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbAnnexAccess);

void
BM_TrackerRecord(benchmark::State &state)
{
    core::RegionTracker tracker(16, 16, 16 * 1024);
    Rng rng(3);
    for (auto _ : state)
        tracker.record(rng.next32() & 0xffffff,
                       rng.next32() & 15);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackerRecord);

void
BM_DirectoryAccess(benchmark::State &state)
{
    mem::Directory dir(16);
    Rng rng(4);
    for (auto _ : state) {
        Addr block = (rng.next32() & 0xffff) * blockBytes;
        benchmark::DoNotOptimize(
            dir.access(block, rng.next32() & 15,
                       rng.chance(0.3), rng.next32() & 15));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryAccess);

void
BM_TopologySend(benchmark::State &state)
{
    topology::Topology topo(topology::SystemConfig::starnuma16());
    Rng rng(5);
    Cycles now;
    for (auto _ : state) {
        NodeId src = rng.next32() % 16;
        NodeId dst = rng.next32() % 17;
        now += Cycles(10);
        benchmark::DoNotOptimize(
            topo.send(src, dst, now, topology::dataBytes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologySend);

void
BM_DramAccess(benchmark::State &state)
{
    mem::MemoryController mc(2, mem::DramConfig{});
    Rng rng(6);
    Cycles now;
    for (auto _ : state) {
        now += Cycles(5);
        benchmark::DoNotOptimize(
            mc.access(now, rng.next32() & 0xffffff));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

void
BM_KroneckerGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        Rng rng(7);
        auto g = workloads::CsrGraph::kronecker(
            static_cast<int>(state.range(0)), 8, rng);
        benchmark::DoNotOptimize(g.directedEdges());
    }
}
BENCHMARK(BM_KroneckerGeneration)->Arg(10)->Arg(14);

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);
    int rc = benchutil::runBenchmarks(argc, argv);

    auto cfg = topology::SystemConfig::starnuma16();
    topology::Topology topo(cfg);
    TextTable t({"parameter", "value"});
    t.addRow({"sockets / chassis",
              std::to_string(cfg.sockets) + " / " +
                  std::to_string(cfg.chassis())});
    t.addRow({"UPI links (intra-chassis + socket-ASIC)",
              std::to_string(topo.countLinks(
                  topology::LinkType::UPI))});
    t.addRow({"NUMALinks (ASIC pairs)",
              std::to_string(topo.countLinks(
                  topology::LinkType::NUMALink))});
    t.addRow({"CXL links (star to pool)",
              std::to_string(topo.countLinks(
                  topology::LinkType::CXL))});
    t.addRow({"UPI / NUMALink / CXL GB/s per direction (scaled)",
              TextTable::num(cfg.upiGbps, 1) + " / " +
                  TextTable::num(cfg.numalinkGbps, 1) + " / " +
                  TextTable::num(cfg.cxlGbps, 1)});
    t.addRow({"unloaded local / 1-hop / 2-hop / pool ns",
              TextTable::num(cfg.localNs(), 0) + " / " +
                  TextTable::num(cfg.oneHopNs(), 0) + " / " +
                  TextTable::num(cfg.twoHopNs(), 0) + " / " +
                  TextTable::num(cfg.poolNs(), 0)});
    t.addRow({"pool capacity fraction",
              TextTable::pct(cfg.poolCapacityFraction, 0)});
    benchutil::printSection(
        "Tables I/II: system parameters (scaled configuration)",
        t.str());
    return rc;
}
