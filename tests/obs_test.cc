/**
 * @file
 * Observability subsystem tests: deterministic number formatting,
 * the snapshot JSON golden, registry registration/expansion and
 * duplicate-path panics, the run sink (one switch for every
 * channel, the four-file run directory, and its byte-stability for
 * pool sizes 1/4/8), a trace smoke test (events well-formed, file
 * structure valid), and the thread-pool self-profiling registry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/registry.hh"
#include "sim/obs/timeseries.hh"
#include "sim/obs/trace_session.hh"
#include "sim/parallel.hh"
#include "sim/stats.hh"

namespace starnuma
{
namespace
{

// --- formatting ---

TEST(ObsFormat, WholeNumbersPrintWithoutFraction)
{
    EXPECT_EQ(obs::formatNumber(0.0), "0");
    EXPECT_EQ(obs::formatNumber(42.0), "42");
    EXPECT_EQ(obs::formatNumber(-3.0), "-3");
    EXPECT_EQ(obs::formatCount(0), "0");
    EXPECT_EQ(obs::formatCount(12345678901234ULL),
              "12345678901234");
}

TEST(ObsFormat, FractionsRoundTripExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 2.5e-7, 123456.789, -0.625}) {
        std::string s = obs::formatNumber(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(ObsFormat, JsonEscape)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::jsonEscape("tab\there"), "tab\\there");
}

// --- snapshot goldens ---

TEST(ObsSnapshot, JsonGoldenSortedAndStable)
{
    obs::Snapshot s;
    s.setCount("b.count", 3);
    s.set("a.ratio", 0.5);
    s.set("c.mean", 12.0);
    EXPECT_EQ(s.json(),
              "{\n"
              "  \"a.ratio\": 0.5,\n"
              "  \"b.count\": 3,\n"
              "  \"c.mean\": 12\n"
              "}\n");
}

TEST(ObsSnapshot, MergePrefixesAndGet)
{
    obs::Snapshot inner;
    inner.setCount("hits", 4);
    obs::Snapshot outer;
    outer.merge("cache.", inner);
    EXPECT_EQ(outer.get("cache.hits"), "4");
    EXPECT_EQ(outer.get("absent"), "");
    EXPECT_EQ(outer.size(), 1u);
}

// --- registry ---

TEST(ObsRegistry, RegistersAndExpandsAllKinds)
{
    std::uint64_t hits = 7;
    double util = 0.25;
    stats::Mean m;
    m.sample(2.0);
    m.sample(4.0);
    stats::Histogram h(4, 10.0);
    h.sample(5.0);
    h.sample(35.0);
    h.sample(99.0); // overflow

    obs::Registry r;
    r.addCounter("cache.hits", &hits);
    r.addGauge("link.util", &util);
    r.addCounterFn("twice.hits", [&hits] { return hits * 2; });
    r.addGaugeFn("half.util", [&util] { return util / 2; });
    r.addMean("queue.delay", &m);
    r.addHistogram("lat", &h);
    EXPECT_EQ(r.size(), 6u);

    obs::Snapshot s = r.snapshot();
    EXPECT_EQ(s.get("cache.hits"), "7");
    EXPECT_EQ(s.get("link.util"), "0.25");
    EXPECT_EQ(s.get("twice.hits"), "14");
    EXPECT_EQ(s.get("half.util"), "0.125");
    EXPECT_EQ(s.get("queue.delay.count"), "2");
    EXPECT_EQ(s.get("queue.delay.sum"), "6");
    EXPECT_EQ(s.get("queue.delay.mean"), "3");
    EXPECT_EQ(s.get("queue.delay.min"), "2");
    EXPECT_EQ(s.get("queue.delay.max"), "4");
    EXPECT_EQ(s.get("lat.total"), "3");
    EXPECT_EQ(s.get("lat.overflow"), "1");
    EXPECT_EQ(s.get("lat.bucket00"), "1");
    EXPECT_EQ(s.get("lat.bucket03"), "1");
    EXPECT_NE(s.get("lat.p50"), "");
    EXPECT_NE(s.get("lat.p99"), "");

    // Live references: bumping the owner changes the next snapshot.
    hits = 8;
    EXPECT_EQ(r.snapshot().get("cache.hits"), "8");
}

TEST(ObsRegistryDeathTest, DuplicatePathPanics)
{
    obs::Registry r;
    std::uint64_t v = 0;
    r.addCounter("a.b", &v);
    EXPECT_DEATH(r.addCounter("a.b", &v), "assertion");
}

TEST(ObsRegistryDeathTest, MalformedPathPanics)
{
    obs::Registry r;
    std::uint64_t v = 0;
    EXPECT_DEATH(r.addCounter("bad path", &v), "assertion");
}

// --- the run sink ---

/** Whole contents of @p path ("" when it cannot be read). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ObsSink, DisabledByDefaultAndDropsWhenStopped)
{
    obs::RunSink &sink = obs::RunSink::global();
    ASSERT_FALSE(sink.enabled());
    ASSERT_FALSE(obs::hostProfilingEnabled());
    ASSERT_FALSE(obs::TraceSession::global().enabled());

    obs::Snapshot s;
    s.setCount("x", 1);
    sink.add("pre.", s); // disabled: no-op
    EXPECT_TRUE(sink.stats().empty());

    // One switch turns every channel on, the trace included. The
    // time-series and audit channels are covered in
    // timeseries_test.cc.
    sink.start("");
    EXPECT_TRUE(obs::hostProfilingEnabled());
    EXPECT_TRUE(obs::TraceSession::global().enabled());
    sink.add("on.", s);
    EXPECT_EQ(sink.stats().get("on.x"), "1");
    EXPECT_TRUE(sink.write()); // no directory: nothing to do

    sink.stop();
    EXPECT_FALSE(sink.enabled());
    EXPECT_FALSE(obs::TraceSession::global().enabled());
    EXPECT_TRUE(sink.stats().empty());
}

/**
 * write() creates the run directory (parents included) and fills it
 * with exactly the four fixed-name files.
 */
TEST(ObsSink, WriteCreatesExactlyTheFourFiles)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(testing::TempDir()) / "starnuma_obs_run";
    fs::remove_all(root);
    fs::path dir = root / "nested";

    obs::RunSink &sink = obs::RunSink::global();
    sink.start(dir.string());
    obs::Snapshot s;
    s.setCount("hits", 2);
    sink.add("t.", s);
    ASSERT_TRUE(sink.write());
    sink.stop();

    std::set<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir))
        files.insert(entry.path().filename().string());
    EXPECT_EQ(files,
              (std::set<std::string>{"audit.csv", "stats.json",
                                     "timeseries.json",
                                     "trace.json"}));
    EXPECT_EQ(readFile((dir / "stats.json").string()),
              "{\n  \"t.hits\": 2\n}\n");
    EXPECT_EQ(readFile((dir / "timeseries.json").string()), "{}\n");
    EXPECT_EQ(readFile((dir / "audit.csv").string()),
              std::string(obs::auditCsvHeader()) + "\n");
    fs::remove_all(root);
}

/**
 * The run directory's stats.json of a full StarNUMA experiment is
 * byte-identical for pool sizes 1, 4 and 8 (timeseries.json and
 * audit.csv: timeseries_test.cc).
 */
TEST(ObsSink, StatsArtifactByteIdenticalAcrossPoolSizes)
{
    namespace fs = std::filesystem;
    SimScale s = SimScale::tiny();
    obs::RunSink &sink = obs::RunSink::global();
    fs::path root = fs::path(testing::TempDir()) / "starnuma_obs_pools";

    auto run_collect = [&](int pool_size) {
        ThreadPool::setGlobalThreads(pool_size);
        fs::path dir = root / std::to_string(pool_size);
        sink.start(dir.string());
        driver::runExperiment(
            "bfs", driver::SystemSetup::starnuma(), s);
        EXPECT_TRUE(sink.write());
        sink.stop();
        return readFile((dir / "stats.json").string());
    };

    std::string serial = run_collect(1);
    EXPECT_NE(serial.find("bfs.starnuma-t16.summary."),
              std::string::npos);
    for (int pool_size : {4, 8}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size));
        EXPECT_EQ(run_collect(pool_size), serial);
    }
    ThreadPool::setGlobalThreads(0);
    fs::remove_all(root);
}

// --- trace smoke test ---

TEST(ObsTrace, SmokeFileWellFormed)
{
    namespace fs = std::filesystem;
    obs::RunSink &sink = obs::RunSink::global();
    obs::TraceSession &trace = obs::TraceSession::global();
    ASSERT_FALSE(trace.enabled());
    fs::path dir = fs::path(testing::TempDir()) / "starnuma_obs_trace";
    fs::remove_all(dir);
    sink.start(dir.string());

    {
        obs::TraceSpan span(
            "unit span", "test",
            obs::TraceArgs().add("k", 1).str());
    }
    trace.instantNow("unit instant", "test");
    trace.counterEvent(
        "unit counter", 1.0, obs::tracePidSim, 0,
        obs::TraceArgs().add("v", 0.5).str());

    SimScale s = SimScale::tiny();
    driver::runExperiment("bfs", driver::SystemSetup::starnuma(),
                          s);
    EXPECT_GT(trace.eventCount(), 4u);

    ASSERT_TRUE(sink.write());
    sink.stop();
    ASSERT_FALSE(trace.enabled());

    std::string text = readFile((dir / "trace.json").string());
    fs::remove_all(dir);

    // File structure: one traceEvents array, ms display unit.
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\"}"),
              std::string::npos);

    // Every event line carries well-formed ph/pid fields and
    // balanced braces (events are one per line between [ and ]).
    std::istringstream lines(text);
    std::string line;
    std::size_t events = 0;
    bool saw_x = false, saw_meta = false;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"name\":", 0) != 0)
            continue;
        ++events;
        EXPECT_NE(line.find("\"ph\":\""), std::string::npos)
            << line;
        EXPECT_NE(line.find("\"pid\":"), std::string::npos)
            << line;
        int depth = 0;
        bool in_str = false;
        for (std::size_t i = 0; i < line.size(); ++i) {
            char c = line[i];
            if (in_str) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    in_str = false;
            } else if (c == '"') {
                in_str = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}') {
                --depth;
            }
        }
        EXPECT_EQ(depth, 0) << line;
        if (line.find("\"ph\":\"X\"") != std::string::npos)
            saw_x = true;
        if (line.find("\"ph\":\"M\"") != std::string::npos)
            saw_meta = true;
    }
    EXPECT_GT(events, 4u);
    EXPECT_TRUE(saw_x) << "no duration events in trace";
    EXPECT_TRUE(saw_meta) << "no metadata events in trace";
}

// --- thread-pool self-profiling ---

TEST(ObsPoolProfile, RegistersTaskCountsAndBusyFractions)
{
    ThreadPool pool(2);
    pool.parallelFor(100, [](std::size_t) {});

    obs::Registry r;
    pool.registerStats(r, "pool");
    obs::Snapshot s = r.snapshot();

    EXPECT_EQ(s.get("pool.size"), "2");
    EXPECT_NE(s.get("pool.batches"), "0");
    EXPECT_NE(s.get("pool.upNs"), "");

    // Every task lands in exactly one slot: caller + 2 workers.
    std::uint64_t tasks =
        std::strtoull(s.get("pool.caller.tasks").c_str(), nullptr,
                      10) +
        std::strtoull(s.get("pool.worker0.tasks").c_str(), nullptr,
                      10) +
        std::strtoull(s.get("pool.worker1.tasks").c_str(), nullptr,
                      10);
    EXPECT_EQ(tasks, 100u);

    // Busy fractions exist for every slot (0 unless host profiling
    // was enabled while the tasks ran).
    EXPECT_NE(s.get("pool.caller.busyFraction"), "");
    EXPECT_NE(s.get("pool.worker0.busyFraction"), "");
    EXPECT_NE(s.get("pool.worker1.busyFraction"), "");
}

} // namespace
} // namespace starnuma
