/**
 * @file
 * Fig 2 reproduction: page sharing-degree distribution and the
 * distribution of overall accesses across sharing degrees for the
 * BFS workload on the 16-socket system, including the read-write
 * classification and §II-B's derived quantities (fraction of pages
 * with <= 4 sharers, accesses concentrated on > 8-sharer pages,
 * inter-chassis share of fully shared accesses).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "sim/table.hh"
#include "trace/profile.hh"

using namespace starnuma;

namespace
{

const trace::SharingProfile &
profile()
{
    static SimScale scale = benchutil::benchScale();
    static const trace::WorkloadTrace &trace =
        driver::workloadTrace("bfs", scale);
    static trace::SharingProfile p(trace, scale.coresPerSocket,
                                   scale.sockets);
    return p;
}

void
BM_Fig2_BfsSharingProfile(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(profile().totalPages());
    const auto &p = profile();
    state.counters["pages_le4_sharers"] = p.pagesWithAtMost(4);
    state.counters["accesses_gt8_sharers"] = p.accessesAbove(8);
    state.counters["accesses_deg16"] = p.accessFraction(16);
}
BENCHMARK(BM_Fig2_BfsSharingProfile)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);
    int rc = benchutil::runBenchmarks(argc, argv);
    const auto &p = profile();

    TextTable t({"sharers", "pages", "accesses", "RW accesses"});
    for (int d = 1; d <= p.sockets(); ++d) {
        if (p.pageFraction(d) < 0.001 && p.accessFraction(d) < 0.001)
            continue;
        t.addRow({std::to_string(d), TextTable::pct(p.pageFraction(d)),
                  TextTable::pct(p.accessFraction(d)),
                  TextTable::pct(p.readWriteAccessFraction(d))});
    }
    benchutil::printSection(
        "Fig 2: BFS page sharing degree and access distributions",
        t.str());

    TextTable s({"quantity", "measured", "paper"});
    s.addRow({"pages with <= 4 sharers",
              TextTable::pct(p.pagesWithAtMost(4)), "78%"});
    s.addRow({"pages with > 8 sharers",
              TextTable::pct(1.0 - p.pagesWithAtMost(8)), "7%"});
    s.addRow({"accesses to > 8-sharer pages",
              TextTable::pct(p.accessesAbove(8)), "68%"});
    s.addRow({"accesses to 16-sharer pages",
              TextTable::pct(p.accessFraction(16)), "36%"});
    s.addRow({"inter-chassis share (uniform, Sec II-B)",
              TextTable::pct(
                  trace::SharingProfile::interChassisFraction(16, 4)),
              "75%"});
    benchutil::printSection("Fig 2 summary vs paper", s.str());
    return rc;
}
