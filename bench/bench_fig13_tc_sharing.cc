/**
 * @file
 * Fig 13 reproduction: TC's page sharing-degree and access
 * distributions — the other end of the workload spectrum from
 * BFS (Fig 2). TC's widely shared pages are read-only (the CSR),
 * so replication would be coherence-free but capacity-prohibitive:
 * the paper measures 60%/80% of the dataset touched by 16/8+
 * sockets. Also prints §V-F's replication-vs-pooling comparison
 * quantities for both TC and BFS.
 */

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.hh"
#include "sim/table.hh"
#include "trace/profile.hh"

using namespace starnuma;

namespace
{

const trace::SharingProfile &
profileOf(const std::string &workload)
{
    static SimScale scale = benchutil::benchScale();
    static std::map<std::string, trace::SharingProfile> memo;
    auto it = memo.find(workload);
    if (it == memo.end()) {
        const trace::WorkloadTrace &trace =
            driver::workloadTrace(workload, scale);
        it = memo.emplace(workload,
                          trace::SharingProfile(
                              trace, scale.coresPerSocket,
                              scale.sockets))
                 .first;
    }
    return it->second;
}

void
BM_Fig13_TcSharingProfile(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(profileOf("tc").totalPages());
    const auto &p = profileOf("tc");
    state.counters["pages_deg16"] = p.pageFraction(16);
    state.counters["pages_8plus"] = 1.0 - p.pagesWithAtMost(7);
    state.counters["rw_at_16"] = p.readWriteAccessFraction(16);
}
BENCHMARK(BM_Fig13_TcSharingProfile)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);
    int rc = benchutil::runBenchmarks(argc, argv);
    const auto &p = profileOf("tc");

    TextTable t({"sharers", "pages", "accesses", "RW accesses"});
    for (int d = 1; d <= p.sockets(); ++d) {
        if (p.pageFraction(d) < 0.001 && p.accessFraction(d) < 0.001)
            continue;
        t.addRow({std::to_string(d),
                  TextTable::pct(p.pageFraction(d)),
                  TextTable::pct(p.accessFraction(d)),
                  TextTable::pct(p.readWriteAccessFraction(d))});
    }
    benchutil::printSection(
        "Fig 13: TC page sharing degree and access distributions",
        t.str());

    const auto &bfs = profileOf("bfs");
    TextTable s({"quantity", "TC", "BFS", "paper (TC)"});
    s.addRow({"pages touched by 16 sockets",
              TextTable::pct(p.pageFraction(16)),
              TextTable::pct(bfs.pageFraction(16)), "60%"});
    s.addRow({"pages touched by 8+ sockets",
              TextTable::pct(1.0 - p.pagesWithAtMost(7)),
              TextTable::pct(1.0 - bfs.pagesWithAtMost(7)), "80%"});
    s.addRow({"RW share of accesses to 16-sharer pages",
              TextTable::pct(p.readWriteAccessFraction(16)),
              TextTable::pct(bfs.readWriteAccessFraction(16)),
              "~0% (read-only)"});
    benchutil::printSection(
        "Sec V-F: replication vs pooling — TC is read-only shared "
        "but capacity-heavy; BFS is read-write shared",
        s.str());
    return rc;
}
