#include "bench_util.hh"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "sim/obs/obs.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace benchutil
{

void
printSection(const std::string &title, const std::string &body)
{
    std::printf("\n=== %s ===\n%s\n", title.c_str(), body.c_str());
    std::fflush(stdout);
}

bool
fastMode()
{
    const char *v = std::getenv("STARNUMA_BENCH_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

SimScale
benchScale()
{
    SimScale s = SimScale::sc1();
    if (fastMode()) {
        s.phases = 2;
        s.phaseInstructions = 100000;
    }
    return s;
}

namespace
{

std::string
scaleKey(const SimScale &s)
{
    return std::to_string(s.threads()) + ":" +
           std::to_string(s.phases) + ":" +
           std::to_string(s.phaseInstructions) + ":" +
           std::to_string(s.detailFraction);
}

std::string
runKey(const std::string &workload,
       const driver::SystemSetup &setup, const SimScale &scale)
{
    return workload + "/" + setup.name + "/" + scaleKey(scale) +
           "/r" + std::to_string(setup.regionBytes);
}

std::map<std::string, driver::ExperimentResult> &
runMemo()
{
    static std::map<std::string, driver::ExperimentResult> memo;
    return memo;
}

std::map<std::string, driver::RunMetrics> &
singleSocketMemo()
{
    static std::map<std::string, driver::RunMetrics> memo;
    return memo;
}

} // anonymous namespace

void
prewarm(const std::vector<driver::SweepJob> &jobs)
{
    std::vector<driver::ExperimentResult> results =
        driver::runSweep(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const driver::SweepJob &job = jobs[i];
        if (job.singleSocket)
            singleSocketMemo().emplace(
                job.workload + "/" + scaleKey(job.scale),
                std::move(results[i].metrics));
        else
            runMemo().emplace(
                runKey(job.workload, job.setup, job.scale),
                std::move(results[i]));
    }
}

const driver::ExperimentResult &
cachedRun(const std::string &workload,
          const driver::SystemSetup &setup, const SimScale &scale)
{
    auto &memo = runMemo();
    std::string key = runKey(workload, setup, scale);
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, driver::runExperiment(
                                   workload, setup, scale))
                 .first;
    return it->second;
}

const driver::RunMetrics &
cachedSingleSocket(const std::string &workload,
                   const SimScale &scale)
{
    auto &memo = singleSocketMemo();
    std::string key = workload + "/" + scaleKey(scale);
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key,
                          driver::runSingleSocket(workload, scale))
                 .first;
    return it->second;
}

double
speedupOverBaseline(const std::string &workload,
                    const driver::SystemSetup &setup,
                    const SimScale &scale)
{
    const auto &base = cachedRun(
        workload, driver::SystemSetup::baseline(), scale);
    const auto &run = cachedRun(workload, setup, scale);
    return run.metrics.speedupOver(base.metrics);
}

std::vector<std::string>
benchWorkloads()
{
    // All eight workloads in fast mode too: fast runs shrink the
    // *scale* (benchScale), not the coverage, so the exported
    // BENCH_results.json always carries every workload.
    return workloads::workloadNames();
}

namespace
{

std::mutex resultsMu;
std::map<std::string, double> &
recordedResults()
{
    // Leaky on purpose: first touched after the atexit writer is
    // registered, so a static would be destroyed before it runs.
    static auto *results = new std::map<std::string, double>;
    return *results;
}

std::string benchJsonPath;
std::chrono::steady_clock::time_point benchStart;

/** Consume "--name=value" from argv; "" when absent. */
std::string
takeFlag(int *argc, char **argv, const char *name)
{
    std::string prefix = std::string("--") + name + "=";
    std::string value;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(),
                         prefix.size()) == 0)
            value = argv[i] + prefix.size();
        else
            argv[out++] = argv[i];
    }
    *argc = out;
    return value;
}

void
writeBenchJson()
{
    double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - benchStart)
            .count();
    std::string out = "{\n  \"schema\": \"starnuma-bench-v1\",\n";
    out += std::string("  \"fast_mode\": ") +
           (fastMode() ? "true" : "false") + ",\n";
    out += "  \"results\": {";
    bool first = true;
    {
        std::lock_guard<std::mutex> lock(resultsMu);
        for (const auto &[k, v] : recordedResults()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    \"" + obs::jsonEscape(k) +
                   "\": " + obs::formatNumber(v);
        }
    }
    out += first ? "},\n" : "\n  },\n";
    char wall_buf[64];
    std::snprintf(wall_buf, sizeof(wall_buf), "%.3f", wall);
    out += std::string("  \"wall_time_s\": ") + wall_buf + "\n}\n";
    std::FILE *f = std::fopen(benchJsonPath.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "bench: cannot write %s\n",
                     benchJsonPath.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

} // anonymous namespace

void
recordResult(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(resultsMu);
    recordedResults()[key] = value;
}

void
initBench(int *argc, char **argv)
{
    static bool done = false;
    if (done)
        return;
    done = true;
    benchStart = std::chrono::steady_clock::now();

    std::string obs_dir = takeFlag(argc, argv, "obs-dir");
    if (!obs_dir.empty())
        obs::RunSink::global().start(obs_dir);
    benchJsonPath = takeFlag(argc, argv, "bench-json");
    if (benchJsonPath.empty())
        if (const char *v = std::getenv("STARNUMA_BENCH_JSON"))
            benchJsonPath = v;
    if (!benchJsonPath.empty())
        std::atexit(writeBenchJson);
}

int
runBenchmarks(int argc, char **argv)
{
    initBench(&argc, argv);

    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}

} // namespace benchutil
} // namespace starnuma
