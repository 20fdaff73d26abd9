/**
 * @file
 * Time-series telemetry and migration audit log tests (DESIGN.md
 * §14): columnar TimeSeries storage and lastValue single-sourcing,
 * the JSON export golden, duplicate/malformed stream-path panics,
 * AuditLog serialization (branch vocabulary, CSV rows), and the run
 * sink's time-series and audit channels: off by default, and
 * timeseries.json / audit.csv byte-identical for pool sizes 1/4/8.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/experiment.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/timeseries.hh"
#include "sim/parallel.hh"

namespace starnuma
{
namespace
{

// --- TimeSeries storage ---

TEST(TimeSeries, SampleAndLastValue)
{
    obs::TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    obs::TimeSeries::StreamId a = ts.addStream("link.util", 4);
    obs::TimeSeries::StreamId b = ts.addStream("dram.requests");
    EXPECT_EQ(ts.streams(), 2u);
    EXPECT_DOUBLE_EQ(ts.lastValue(a), 0.0);

    ts.sample(a, 2000, 0.25);
    ts.sample(a, 22000, 0.5);
    ts.sample(b, 2000, 17.0);
    EXPECT_FALSE(ts.empty());
    EXPECT_EQ(ts.samples(a), 2u);
    EXPECT_EQ(ts.samples(b), 1u);
    // lastValue is the single source the trace counters re-emit
    // from (satellite: trace and export can never drift).
    EXPECT_DOUBLE_EQ(ts.lastValue(a), 0.5);
    EXPECT_DOUBLE_EQ(ts.lastValue(b), 17.0);

    // Sampling past the reserved capacity regrows, never drops.
    for (std::uint64_t i = 0; i < 64; ++i)
        ts.sample(a, 42000 + i, 1.0);
    EXPECT_EQ(ts.samples(a), 66u);
}

TEST(TimeSeries, JsonGoldenColumnArrays)
{
    obs::TimeSeries ts;
    EXPECT_EQ(ts.json(), "{}\n");
    obs::TimeSeries::StreamId z = ts.addStream("z.late");
    obs::TimeSeries::StreamId a = ts.addStream("a.b");
    ts.sample(z, 1, 2.0);
    ts.sample(a, 2000, 0.25);
    ts.sample(a, 22000, 4.0);
    // Streams sort lexicographically regardless of registration
    // order; whole numbers print without a fraction.
    EXPECT_EQ(ts.json(),
              "{\n"
              "  \"a.b\": {\"t\": [2000,22000], "
              "\"v\": [0.25,4]},\n"
              "  \"z.late\": {\"t\": [1], \"v\": [2]}\n"
              "}\n");
}

TEST(TimeSeries, MergePrefixesStreams)
{
    obs::TimeSeries inner;
    obs::TimeSeries::StreamId s = inner.addStream("dram.requests");
    inner.sample(s, 2000, 9.0);

    obs::TimeSeries outer;
    outer.merge("bfs.starnuma.timing.", inner);
    EXPECT_EQ(outer.streams(), 1u);
    EXPECT_EQ(outer.json(),
              "{\n"
              "  \"bfs.starnuma.timing.dram.requests\": "
              "{\"t\": [2000], \"v\": [9]}\n"
              "}\n");
}

TEST(TimeSeriesDeathTest, DuplicateStreamPathPanics)
{
    obs::TimeSeries ts;
    ts.addStream("a.b");
    EXPECT_DEATH(ts.addStream("a.b"), "assertion");
}

TEST(TimeSeriesDeathTest, MalformedStreamPathPanics)
{
    obs::TimeSeries ts;
    EXPECT_DEATH(ts.addStream("bad path"), "assertion");
}

// --- AuditLog serialization ---

TEST(AuditLog, BranchVocabularyMatchesTraceNames)
{
    // The names are shared vocabulary with the Chrome-trace
    // migration instants and scripts/starnuma_report.py; renaming
    // one breaks the report's branch histograms.
    EXPECT_STREQ(obs::auditBranchName(obs::AuditBranch::ToPool),
                 "toPool");
    EXPECT_STREQ(obs::auditBranchName(obs::AuditBranch::ToSharer),
                 "toSharer");
    EXPECT_STREQ(
        obs::auditBranchName(obs::AuditBranch::VictimEviction),
        "victimEviction");
    EXPECT_STREQ(
        obs::auditBranchName(obs::AuditBranch::PingPongSuppressed),
        "pingPongSuppressed");
    EXPECT_STREQ(
        obs::auditBranchName(obs::AuditBranch::NoRoomBackoff),
        "noRoomBackoff");
    EXPECT_STREQ(
        obs::auditBranchName(obs::AuditBranch::AlreadyPlaced),
        "alreadyPlaced");
    EXPECT_STREQ(
        obs::auditBranchName(obs::AuditBranch::SamePlacement),
        "samePlacement");
    EXPECT_STRNE(
        obs::auditBranchReason(obs::AuditBranch::VictimEviction),
        "");
}

TEST(AuditLog, CsvRowsGolden)
{
    obs::AuditRecord r;
    r.phase = 3;
    r.branch = obs::AuditBranch::ToPool;
    r.region = 7;
    r.page = 448;
    r.sharers = 4;
    r.accesses = 90;
    r.hiThreshold = 64;
    r.loThreshold = 8;
    r.candidates = 12;
    r.from = 1;
    r.to = 4;

    obs::AuditLog log;
    EXPECT_TRUE(log.empty());
    log.append(r);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(log.csvRows("bfs.starnuma"),
              "bfs.starnuma,0,3,toPool,7,448,4,90,64,8,12,1,4,"
              "\"sharers reached the pool threshold\"\n");
}


// --- the run sink's time-series and audit channels ---

TEST(TimeSeriesSink, DisabledByDefaultAndDropsWhenStopped)
{
    obs::RunSink &sink = obs::RunSink::global();
    ASSERT_FALSE(sink.enabled());

    obs::TimeSeries ts;
    ts.sample(ts.addStream("a.b"), 1, 1.0);
    obs::AuditLog log;
    log.append(obs::AuditRecord());
    const std::string no_audit = std::string(obs::auditCsvHeader()) +
                                 "\n";

    sink.add("pre.", ts); // disabled: no-op
    sink.add("pre", log);
    EXPECT_TRUE(sink.timeseries().empty());
    EXPECT_EQ(sink.auditCsv(), no_audit);

    sink.start("");
    sink.add("on.", ts);
    sink.add("on", log);
    EXPECT_EQ(sink.timeseries().streams(), 1u);
    EXPECT_NE(sink.auditCsv().find("\non,0,"), std::string::npos);
    sink.stop();
    EXPECT_FALSE(sink.enabled());
    EXPECT_TRUE(sink.timeseries().empty());
    EXPECT_EQ(sink.auditCsv(), no_audit);
}

/** Whole contents of @p path ("" when it cannot be read). */
std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * The run directory's timeseries.json and audit.csv of a full
 * StarNUMA experiment are byte-identical for pool sizes 1, 4 and 8
 * (stats.json: obs_test.cc).
 */
TEST(TimeSeriesSink, ArtifactsByteIdenticalAcrossPoolSizes)
{
    namespace fs = std::filesystem;
    SimScale s = SimScale::tiny();
    obs::RunSink &sink = obs::RunSink::global();
    fs::path root = fs::path(testing::TempDir()) / "starnuma_ts_pools";

    struct Artifacts
    {
        std::string series;
        std::string audit;
    };
    auto run_collect = [&](int pool_size) {
        ThreadPool::setGlobalThreads(pool_size);
        fs::path dir = root / std::to_string(pool_size);
        sink.start(dir.string());
        driver::runExperiment(
            "bfs", driver::SystemSetup::starnuma(), s);
        EXPECT_TRUE(sink.write());
        sink.stop();
        return Artifacts{readFile(dir / "timeseries.json"),
                         readFile(dir / "audit.csv")};
    };

    Artifacts serial = run_collect(1);
    EXPECT_NE(serial.series.find("bfs.starnuma-t16.timing.phase"),
              std::string::npos);
    EXPECT_NE(serial.audit.find("toPool"), std::string::npos);
    for (int pool_size : {4, 8}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size));
        Artifacts a = run_collect(pool_size);
        EXPECT_EQ(a.series, serial.series);
        EXPECT_EQ(a.audit, serial.audit);
    }
    ThreadPool::setGlobalThreads(0);
    fs::remove_all(root);
}

} // namespace
} // namespace starnuma
