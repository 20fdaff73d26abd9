/**
 * @file
 * §III-B scaling study: StarNUMA at 32 sockets. Beyond 16 sockets
 * the pool needs a CXL switch (+90 ns roundtrip, 270 ns end-to-end
 * pool access). The latency gap to a 2-hop access shrinks, but the
 * pool's second advantage — extra bandwidth for heavily shared
 * pages — remains, so speedups persist at the larger scale.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "driver/timing_sim.hh"
#include "sim/table.hh"

using namespace starnuma;

namespace
{

std::vector<std::string>
scaleWorkloads()
{
    if (benchutil::fastMode())
        return {"bfs"};
    return {"bfs", "cc", "masstree"};
}

SimScale
scale32()
{
    SimScale s = benchutil::benchScale();
    s.sockets = 32; // 8 chassis x 4 sockets, 128 threads
    return s;
}

double
speedup32(const std::string &workload)
{
    SimScale s = scale32();
    driver::SystemSetup base;
    base.name = "baseline-32";
    base.sys = topology::SystemConfig::baseline32();
    driver::SystemSetup star;
    star.name = "starnuma-32";
    star.sys = topology::SystemConfig::starnuma32();

    const auto &b = benchutil::cachedRun(workload, base, s);
    const auto &r = benchutil::cachedRun(workload, star, s);
    return r.metrics.speedupOver(b.metrics);
}

void
BM_Scale32(benchmark::State &state, const std::string &workload)
{
    double sp = 0;
    for (auto _ : state) {
        sp = speedup32(workload);
        benchmark::DoNotOptimize(sp);
    }
    state.counters["speedup_32s"] = sp;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);
    for (const auto &w : scaleWorkloads())
        benchmark::RegisterBenchmark(("Scale32/" + w).c_str(),
                                     BM_Scale32, w)
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    int rc = benchutil::runBenchmarks(argc, argv);

    TextTable t({"workload", "16 sockets (180 ns pool)",
                 "32 sockets (270 ns switched pool)"});
    for (const auto &w : scaleWorkloads())
        t.addRow({w,
                  TextTable::num(benchutil::speedupOverBaseline(
                                     w,
                                     driver::SystemSetup::starnuma(),
                                     benchutil::benchScale()),
                                 2) + "x",
                  TextTable::num(speedup32(w), 2) + "x"});
    benchutil::printSection(
        "Sec III-B: StarNUMA speedup at 16 vs 32 sockets", t.str());
    return rc;
}
